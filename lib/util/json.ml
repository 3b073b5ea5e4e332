type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal representation that parses back to exactly [x]: try
   15, 16, then 17 significant digits (17 always round-trips a double).
   The old [%.9g] truncated — an emit->parse round trip silently moved
   estimates by up to ~1e-9 relative, fatal for a wire protocol whose
   warm-cache answers must be byte-identical to cold ones. A repr that
   reads back as an integer gets ".0" appended so [Float] survives the
   [parse] type split (["1"] would come back as [Int 1]). *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else begin
    let bits = Int64.bits_of_float x in
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || Int64.bits_of_float (float_of_string s) = bits then s
      else shortest (p + 1)
    in
    let s = shortest 15 in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

(* Pretty-printing matches the historical bench/json_out.ml format exactly,
   so regenerating a committed BENCH_*.json produces byte-stable diffs. *)
let rec emit b ~indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Float x -> Buffer.add_string b (float_repr x)
  | Str s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_string b "[";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b "\n";
          Buffer.add_string b (pad (indent + 2));
          emit b ~indent:(indent + 2) x)
        items;
      Buffer.add_string b "\n";
      Buffer.add_string b (pad indent);
      Buffer.add_string b "]"
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b "\n";
          Buffer.add_string b (pad (indent + 2));
          Buffer.add_string b (Printf.sprintf "\"%s\": " (escape k));
          emit b ~indent:(indent + 2) x)
        fields;
      Buffer.add_string b "\n";
      Buffer.add_string b (pad indent);
      Buffer.add_string b "}"

let rec emit_compact b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Float x -> Buffer.add_string b (float_repr x)
  | Str s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
  | List items ->
      Buffer.add_string b "[";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",";
          emit_compact b x)
        items;
      Buffer.add_string b "]"
  | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b (Printf.sprintf "\"%s\":" (escape k));
          emit_compact b x)
        fields;
      Buffer.add_string b "}"

let to_string ?(compact = false) v =
  let b = Buffer.create 4096 in
  if compact then emit_compact b v
  else begin
    emit b ~indent:0 v;
    Buffer.add_string b "\n"
  end;
  Buffer.contents b

(* write-temp-then-rename: a signal or crash mid-emit must never leave a
   torn BENCH/telemetry/report JSON file on disk *)
let write ~path v = Journal.write_atomic ~path (to_string v)

(* --- parser --- *)

exception Parse_error of string

(* Each level of nesting is a stack frame of the recursive descent, and a
   serve frame may carry 64 MiB of brackets: past this depth the input is
   rejected instead of growing the stack. Every document the toolkit
   writes or reads nests under 10. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              (* exactly 4 hex digits, checked character-by-character:
                 [int_of_string "0x..."] also accepts OCaml numeric-literal
                 underscores, so "\u0_41" used to slip through as 'A' *)
              let hex4 () =
                if !pos + 4 > n then fail "truncated \\u escape";
                let v = ref 0 in
                for i = !pos to !pos + 3 do
                  let d =
                    match s.[i] with
                    | '0' .. '9' as c -> Char.code c - Char.code '0'
                    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                    | _ -> fail "bad \\u escape"
                  in
                  v := (!v * 16) + d
                done;
                pos := !pos + 4;
                !v
              in
              let code = hex4 () in
              (* surrogate pairs combine into one astral code point; a lone
                 surrogate has no UTF-8 encoding and is rejected *)
              let code =
                if code >= 0xD800 && code <= 0xDBFF then begin
                  if
                    not
                      (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                  then fail "unpaired high surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail "unpaired high surrogate";
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else if code >= 0xDC00 && code <= 0xDFFF then
                  fail "unpaired low surrogate"
                else code
              in
              (* decode to UTF-8 so parse∘emit round-trips: the emitter
                 writes raw UTF-8 and only escapes controls *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else if code < 0x10000 then begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* strict JSON number grammar: optional '-', then "0" or a nonzero-led
     digit run, then optional fraction and exponent. [int_of_string] and
     [float_of_string] alone are too liberal — they accept OCaml-isms
     like leading zeros ("01"), underscores ("1_0"), a leading '+', and
     hex, none of which any JSON peer would emit, and all of which would
     mask corruption on the wire. *)
  let check_number_grammar tok =
    let n = String.length tok in
    let p = ref 0 in
    let digits () =
      let start = !p in
      while !p < n && (match tok.[!p] with '0' .. '9' -> true | _ -> false) do
        incr p
      done;
      !p > start
    in
    let ok =
      n > 0
      && begin
           if tok.[0] = '-' then incr p;
           (* int part: "0" alone, or a nonzero-led digit run *)
           (!p < n
           &&
           match tok.[!p] with
           | '0' ->
               incr p;
               true
           | '1' .. '9' -> digits ()
           | _ -> false)
           && (if !p < n && tok.[!p] = '.' then begin
                 incr p;
                 digits ()
               end
               else true)
           &&
           if !p < n && (tok.[!p] = 'e' || tok.[!p] = 'E') then begin
             incr p;
             if !p < n && (tok.[!p] = '+' || tok.[!p] = '-') then incr p;
             digits ()
           end
           else true
         end
    in
    if not ok || !p <> n then fail "bad number"
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    check_number_grammar tok;
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* grammar-valid but beyond native int range: widen to float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('[' | '{') when depth >= max_depth -> fail "nesting too deep"
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
