(* Observability layer: Json emit/parse, Trace export shape and nesting,
   injected-clock regressions for Telemetry/Guard, attribution sum
   identities, and run provenance. *)

open Hlp_util

let with_trace ?capacity f =
  Trace.disable ();
  Trace.reset ();
  Trace.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* --- Json --- *)

let sample_json =
  Json.(
    Obj
      [ ("name", Str "trace \"quoted\"\nline");
        ("count", Int 42);
        ("ratio", Float 0.25);
        ("missing", Null);
        ("ok", Bool true);
        ("items", List [ Int 1; Float 1.5; Str "x"; Bool false; Null ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]) ])

let test_json_roundtrip () =
  let check_roundtrip what s =
    match Json.parse s with
    | Ok v -> Alcotest.(check bool) what true (v = sample_json)
    | Error e -> Alcotest.failf "%s: parse error: %s" what e
  in
  check_roundtrip "pretty roundtrip" (Json.to_string sample_json);
  check_roundtrip "compact roundtrip" (Json.to_string ~compact:true sample_json)

let test_json_accessors () =
  let open Json in
  Alcotest.(check (option int)) "member int" (Some 42)
    (Option.bind (member "count" sample_json) to_int_opt);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 42.0)
    (Option.bind (member "count" sample_json) to_float_opt);
  Alcotest.(check (option (float 0.0))) "float member" (Some 0.25)
    (Option.bind (member "ratio" sample_json) to_float_opt);
  Alcotest.(check (option int)) "list length" (Some 5)
    (Option.map List.length
       (Option.bind (member "items" sample_json) to_list_opt));
  Alcotest.(check bool) "missing key" true (member "nope" sample_json = None);
  Alcotest.(check bool) "type mismatch" true
    (Option.bind (member "name" sample_json) to_int_opt = None)

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_parse_errors () =
  let bad =
    [ "{"; "[1, 2"; "tru"; "\"unterminated"; "{\"a\" 1}"; ""; nested 513 ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad;
  Alcotest.(check bool) "512 levels parse" true
    (Result.is_ok (Json.parse (nested 512)))

let expect_parse what s expected =
  match Json.parse s with
  | Ok v -> Alcotest.(check bool) what true (v = expected)
  | Error e -> Alcotest.failf "%s: parse error on %S: %s" what s e

let expect_reject what s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "%s: accepted %S" what s
  | Error _ -> ()

let test_json_unicode_escapes () =
  expect_parse "BMP ascii" "\"\\u0041\"" (Json.Str "A");
  expect_parse "BMP two-byte" "\"\\u00e9\"" (Json.Str "\xc3\xa9");
  expect_parse "BMP three-byte" "\"\\u20ac\"" (Json.Str "\xe2\x82\xac");
  expect_parse "uppercase hex" "\"\\u20AC\"" (Json.Str "\xe2\x82\xac");
  expect_parse "surrogate pair" "\"\\ud83d\\ude00\""
    (Json.Str "\xf0\x9f\x98\x80");
  expect_parse "escaped control" "\"\\u0007\"" (Json.Str "\x07");
  (* exactly four hex digits, no substitutes *)
  expect_reject "underscore in hex" "\"\\u0_41\"";
  expect_reject "too short" "\"\\u12\"";
  expect_reject "non-hex" "\"\\u00g1\"";
  (* surrogate halves never stand alone *)
  expect_reject "lone high surrogate" "\"\\ud800\"";
  expect_reject "lone low surrogate" "\"\\udc00\"";
  expect_reject "high surrogate then escape" "\"\\ud83d\\u0041\"";
  expect_reject "high surrogate then raw char" "\"\\ud83dA\"";
  (* parse-then-emit identity through the escape table *)
  let s = Json.Str "bell\x07 tab\t quote\" back\\ nl\n" in
  expect_parse "control chars roundtrip" (Json.to_string ~compact:true s) s

let test_json_number_strictness () =
  expect_parse "zero" "0" (Json.Int 0);
  expect_parse "negative zero int" "-0" (Json.Int 0);
  expect_parse "plain int" "10" (Json.Int 10);
  expect_parse "fraction" "1.5" (Json.Float 1.5);
  expect_parse "exponent" "1e3" (Json.Float 1e3);
  expect_parse "signed exponent" "1E+3" (Json.Float 1e3);
  expect_parse "everything at once" "-0.5e-2" (Json.Float (-0.5e-2));
  (* grammar-valid but beyond native int range widens to float *)
  expect_parse "huge int widens" "123456789012345678901234567890"
    (Json.Float 1.2345678901234568e29);
  expect_reject "leading zero" "01";
  expect_reject "negative leading zero" "-01";
  expect_reject "leading plus" "+1";
  expect_reject "trailing dot" "1.";
  expect_reject "leading dot" ".5";
  expect_reject "bare exponent" "1e";
  expect_reject "exponent sign only" "1e+";
  expect_reject "double minus" "--1";
  expect_reject "digit separator" "1_0"

let test_json_float_repr_identity () =
  let cases =
    [ 0.1; -0.0; 1.0 /. 3.0; 1e-300; 4.9e-324; 1.7976931348623157e308;
      1e22; 123456789.123456789; 3.141592653589793; -2.5e-8; 1234567890.0 ]
  in
  List.iter
    (fun f ->
      let s = Json.float_repr f in
      (match Json.parse s with
      | Ok (Json.Float g) ->
          Alcotest.(check bool)
            (Printf.sprintf "bits preserved through %s" s)
            true
            (Int64.bits_of_float g = Int64.bits_of_float f)
      | Ok _ -> Alcotest.failf "%s parsed to a non-float" s
      | Error e -> Alcotest.failf "repr %s rejected: %s" s e);
      Alcotest.(check bool)
        (Printf.sprintf "%s is at most 17 significant digits" s)
        true
        (String.length s <= 25))
    cases;
  (* integer-shaped reprs keep a mark so they reparse as floats *)
  Alcotest.(check string) "integer-shaped keeps .0" "2.0" (Json.float_repr 2.0);
  Alcotest.(check string) "non-finite is null" "null" (Json.float_repr Float.nan)

(* Generator for the roundtrip wall: nasty strings (control chars, quotes,
   backslashes), extreme-but-finite floats, native int extremes, and
   nesting several levels deep. *)
let json_value_gen =
  let open QCheck.Gen in
  let nasty_char =
    frequency
      [ (8, printable);
        (2, map Char.chr (int_bound 31));
        (1, return '"');
        (1, return '\\');
        (1, return '\x7f') ]
  in
  let str_gen = string_size ~gen:nasty_char (int_bound 12) in
  let float_gen =
    let finite f = if Float.is_finite f then f else 0.0 in
    frequency
      [ (3, map finite float);
        (1,
         oneofl
           [ 0.1; -0.0; 1e-300; 4.9e-324; 1.7976931348623157e308; 1e22;
             -3.141592653589793e-15 ]) ]
  in
  let int_gen =
    frequency [ (4, small_signed_int); (1, oneofl [ max_int; min_int; 0 ]) ]
  in
  let leaf =
    frequency
      [ (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int_gen);
        (2, map (fun f -> Json.Float f) float_gen);
        (2, map (fun s -> Json.Str s) str_gen) ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (2, map (fun l -> Json.List l)
                (list_size (int_bound 4) (node (depth - 1))));
          (2,
           map
             (fun kvs -> Json.Obj kvs)
             (list_size (int_bound 4)
                (map2 (fun k v -> (k, v)) str_gen (node (depth - 1))))) ]
  in
  (* occasionally wrap in a deep single-spine chain to stress nesting *)
  let deep v =
    let rec wrap n v = if n = 0 then v else wrap (n - 1) (Json.List [ v ]) in
    wrap 30 v
  in
  frequency [ (9, node 4); (1, map deep leaf) ]

let qcheck_json_roundtrip_wall =
  QCheck.Test.make ~count:300
    ~name:"parse (to_string v) = Ok v, compact and pretty"
    (QCheck.make ~print:(fun v -> Json.to_string ~compact:true v) json_value_gen)
    (fun v ->
      Json.parse (Json.to_string ~compact:true v) = Ok v
      && Json.parse (Json.to_string v) = Ok v)

(* --- Trace --- *)

(* Walk the exported traceEvents: per-tid stacks must balance (every E
   pops a B on the same tid) and timestamps must be sorted and
   non-negative. Returns (#B, #E, #i, distinct tids). *)
let check_export what =
  let json = Trace.to_json () in
  let v =
    match Json.parse json with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: export is not valid JSON: %s" what e
  in
  let events =
    match Option.bind (Json.member "traceEvents" v) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.failf "%s: no traceEvents list" what
  in
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
  let tids = Hashtbl.create 4 in
  let last_ts = ref (-1.0) in
  let nb = ref 0 and ne = ref 0 and ni = ref 0 in
  List.iter
    (fun ev ->
      let field k = Json.member k ev in
      let ph =
        match Option.bind (field "ph") Json.to_str_opt with
        | Some p -> p
        | None -> Alcotest.failf "%s: event without ph" what
      in
      let tid =
        match Option.bind (field "tid") Json.to_int_opt with
        | Some t -> t
        | None -> Alcotest.failf "%s: event without tid" what
      in
      let name =
        match Option.bind (field "name") Json.to_str_opt with
        | Some n -> n
        | None -> Alcotest.failf "%s: event without name" what
      in
      (* metadata events (drop-count surfacing) carry no timestamp and sit
         outside the span stream *)
      if ph = "M" then begin
        if name <> "trace.dropped" then
          Alcotest.failf "%s: unexpected metadata event %S" what name
      end
      else
      let ts =
        match Option.bind (field "ts") Json.to_float_opt with
        | Some t -> t
        | None -> Alcotest.failf "%s: event without ts" what
      in
      if ts < 0.0 then Alcotest.failf "%s: negative ts %g" what ts;
      if ts < !last_ts then
        Alcotest.failf "%s: timestamps not sorted (%g after %g)" what ts
          !last_ts;
      last_ts := ts;
      Hashtbl.replace tids tid ();
      let stack =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks tid s;
            s
      in
      match ph with
      | "B" ->
          incr nb;
          stack := name :: !stack
      | "E" -> (
          incr ne;
          match !stack with
          | [] -> Alcotest.failf "%s: E without matching B on tid %d" what tid
          | _ :: rest -> stack := rest)
      | "i" -> incr ni
      | other -> Alcotest.failf "%s: unexpected ph %S" what other)
    events;
  Hashtbl.iter
    (fun tid s ->
      if !s <> [] then
        Alcotest.failf "%s: %d unclosed spans on tid %d" what (List.length !s)
          tid)
    stacks;
  (!nb, !ne, !ni, Hashtbl.length tids)

let test_trace_disabled_noop () =
  Trace.disable ();
  Trace.reset ();
  let r = Trace.span "never.recorded" (fun () -> 41 + 1) in
  Alcotest.(check int) "span passes value through" 42 r;
  Trace.instant "never.recorded";
  Trace.begin_span "never.recorded";
  Trace.end_span ();
  Alcotest.(check int) "no events recorded" 0 (Trace.event_count ());
  let nb, ne, ni, _ = check_export "disabled" in
  Alcotest.(check int) "empty export" 0 (nb + ne + ni)

let test_trace_nesting_and_validity () =
  with_trace @@ fun () ->
  Trace.span "outer" (fun () ->
      Trace.instant
        ~args:(fun () -> [ ("why", Json.Str "marker") ])
        "tick";
      Trace.span
        ~args:(fun () -> [ ("depth", Json.Int 2) ])
        "inner"
        (fun () -> ignore (Sys.opaque_identity 1)));
  Trace.span "sibling" (fun () -> ());
  let nb, ne, ni, _ = check_export "nesting" in
  Alcotest.(check int) "three begins" 3 nb;
  Alcotest.(check int) "three ends" 3 ne;
  Alcotest.(check int) "one instant" 1 ni;
  Alcotest.(check int) "event_count matches" (nb + ne + ni)
    (Trace.event_count ())

let test_trace_exception_safe () =
  with_trace @@ fun () ->
  (try Trace.span "boom" (fun () -> raise Exit) with Exit -> ());
  let nb, ne, _, _ = check_export "exception" in
  Alcotest.(check int) "span closed despite raise" 1 nb;
  Alcotest.(check int) "E recorded" 1 ne

let test_trace_orphan_end_discarded () =
  with_trace @@ fun () ->
  Trace.end_span ();
  (* depth 0: must be discarded, not exported as a dangling E *)
  Trace.span "real" (fun () -> ());
  let nb, ne, _, _ = check_export "orphan end" in
  Alcotest.(check int) "only the real span's B" 1 nb;
  Alcotest.(check int) "only the real span's E" 1 ne

let test_trace_multidomain () =
  with_trace @@ fun () ->
  Trace.span "main.work" (fun () ->
      (* the container may have a single core, so Parsim won't spawn
         workers here; exercise the per-domain buffers directly *)
      let worker k () =
        for i = 1 to 5 do
          Trace.span
            ~args:(fun () -> [ ("worker", Json.Int k); ("i", Json.Int i) ])
            "worker.span"
            (fun () -> ignore (Sys.opaque_identity i))
        done
      in
      let d1 = Domain.spawn (worker 1) in
      let d2 = Domain.spawn (worker 2) in
      Domain.join d1;
      Domain.join d2);
  let nb, ne, _, tids = check_export "multidomain" in
  Alcotest.(check int) "1 + 2*5 begins" 11 nb;
  Alcotest.(check int) "balanced ends" 11 ne;
  Alcotest.(check bool) "three distinct tids" true (tids = 3)

let test_trace_drop_preserves_nesting () =
  (* a fresh spawned domain picks up the small capacity; overflow must
     drop newest events while keeping the stream well-nested *)
  with_trace ~capacity:16 @@ fun () ->
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 40 do
          Trace.span "flood" (fun () -> ignore (Sys.opaque_identity i))
        done)
  in
  Domain.join d;
  Alcotest.(check bool) "events were dropped" true (Trace.dropped () > 0);
  let nb, ne, _, _ = check_export "overflow" in
  Alcotest.(check int) "surviving stream balanced" nb ne;
  (* the drop total must also be announced inside the event stream *)
  let has_drop_meta =
    match Option.bind (Json.member "traceEvents" (Trace.json_value ())) Json.to_list_opt with
    | None -> false
    | Some evs ->
        List.exists
          (fun ev ->
            Option.bind (Json.member "name" ev) Json.to_str_opt
            = Some "trace.dropped")
          evs
  in
  Alcotest.(check bool) "trace.dropped metadata event present" true has_drop_meta

(* --- tracing must not perturb results --- *)

let qcheck_tracing_is_pure =
  let net = Hlp_logic.Generators.adder_circuit 4 in
  QCheck.Test.make ~count:15
    ~name:"enabling tracing never changes Monte Carlo estimates"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let run () =
        Hlp_power.Probprop.monte_carlo ~seed ~max_cycles:300 net
      in
      Trace.disable ();
      Trace.reset ();
      let plain = run () in
      let traced = with_trace run in
      plain.Hlp_power.Probprop.estimate = traced.Hlp_power.Probprop.estimate
      && plain.Hlp_power.Probprop.half_interval
         = traced.Hlp_power.Probprop.half_interval
      && plain.Hlp_power.Probprop.cycles_used
         = traced.Hlp_power.Probprop.cycles_used
      && plain.Hlp_power.Probprop.batches
         = traced.Hlp_power.Probprop.batches)

(* --- injected clock (Clock.with_source) --- *)

let test_clock_monotonic () =
  let t1 = Clock.monotonic_ns () in
  let t2 = Clock.monotonic_ns () in
  Alcotest.(check bool) "monotonic_ns never decreases" true (Int64.compare t2 t1 >= 0);
  let s1 = Clock.now_s () in
  let s2 = Clock.now_s () in
  Alcotest.(check bool) "now_s never decreases" true (s2 >= s1)

let test_injected_clock_telemetry () =
  with_telemetry @@ fun () ->
  let t = ref 100.0 in
  let fake () =
    let v = !t in
    t := !t +. 2.5;
    v
  in
  let tm = Telemetry.timer "test.injected_clock" in
  Clock.with_source fake (fun () ->
      Telemetry.time tm (fun () -> ignore (Sys.opaque_identity 0)));
  let calls, secs = Telemetry.timer_stats tm in
  Alcotest.(check int) "one timed call" 1 calls;
  (* start read 100.0, finish read 102.5: exactly the injected step *)
  Alcotest.(check (float 1e-9)) "duration is the injected delta" 2.5 secs;
  (* restored: a reading lies between two direct monotonic reads around
     it (the monotonic epoch is boot, so no absolute bound holds) *)
  let secs () = Int64.to_float (Clock.monotonic_ns ()) *. 1e-9 in
  let before = secs () in
  let now = Clock.now_s () in
  let after = secs () in
  Alcotest.(check bool) "real clock restored" true (before <= now && now <= after)

let test_injected_clock_guard () =
  let t = ref 50.0 in
  Clock.with_source
    (fun () -> !t)
    (fun () ->
      let g = Guard.create ~deadline_s:5.0 () in
      Guard.check g;
      t := 54.9;
      Guard.check g;
      Alcotest.(check (float 1e-9)) "elapsed from injected source" 4.9
        (Guard.elapsed_s g);
      Alcotest.(check bool) "not yet expired" false (Guard.expired g);
      t := 55.1;
      Alcotest.(check bool) "expired past the deadline" true (Guard.expired g);
      match Err.protect (fun () -> Guard.check g) with
      | Error (Err.Deadline_exceeded { limit_s; elapsed_s }) ->
          Alcotest.(check (float 1e-9)) "limit" 5.0 limit_s;
          Alcotest.(check (float 1e-9)) "elapsed" 5.1 elapsed_s
      | Ok () -> Alcotest.fail "deadline did not trip"
      | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e))

let test_injected_clock_restored_on_raise () =
  (try
     Clock.with_source (fun () -> nan) (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "real clock restored after raise" true
    (Float.is_finite (Clock.now_s ()))

(* --- attribution --- *)

let vectors_for net ~seed ~n =
  let k = Array.length net.Hlp_logic.Netlist.inputs in
  let rng = Prng.create seed in
  let vecs = Array.init n (fun _ -> Array.init k (fun _ -> Prng.bool rng)) in
  fun c -> vecs.(c)

let test_attribution_sums () =
  let open Hlp_power in
  let net = Hlp_logic.Generators.adder_circuit 6 in
  let n = 400 in
  let vector = vectors_for net ~seed:11 ~n in
  let a = Attribution.profile net ~vector ~n in
  (* an independent replay of the same vectors *)
  let sim = Hlp_sim.Funcsim.create net in
  Hlp_sim.Funcsim.run sim vector n;
  let full_mask = Array.make (Hlp_logic.Netlist.num_nodes net) true in
  let exact = Hlp_sim.Funcsim.switched_capacitance_of sim ~mask:full_mask in
  Alcotest.(check (float 0.0)) "total is byte-identical to the replay total"
    exact a.Attribution.total;
  let event = Hlp_sim.Funcsim.switched_capacitance sim in
  let rel = Float.abs (event -. a.Attribution.total) /. Float.abs event in
  Alcotest.(check bool)
    "total matches the event-accumulated figure to 1e-9 relative" true
    (rel <= 1e-9);
  let entry_sum =
    Array.fold_left
      (fun acc e -> acc +. e.Attribution.switched)
      0.0 a.Attribution.entries
  in
  Alcotest.(check (float 1e-9)) "entries sum to total" a.Attribution.total
    entry_sum;
  let group_sum =
    List.fold_left
      (fun acc g -> acc +. g.Attribution.g_switched)
      0.0 a.Attribution.groups
  in
  Alcotest.(check (float 1e-9)) "group rollup sums to total"
    a.Attribution.total group_sum;
  let share_sum =
    Array.fold_left
      (fun acc e -> acc +. e.Attribution.share)
      0.0 a.Attribution.entries
  in
  Alcotest.(check (float 1e-9)) "shares sum to one" 1.0 share_sum;
  (* hottest-first ordering *)
  let sorted = ref true in
  Array.iteri
    (fun i e ->
      if i > 0 && e.Attribution.switched > a.Attribution.entries.(i - 1).Attribution.switched
      then sorted := false)
    a.Attribution.entries;
  Alcotest.(check bool) "entries sorted hottest first" true !sorted;
  let top3 = Attribution.top a 3 in
  Alcotest.(check int) "top k" 3 (List.length top3);
  let rep = Attribution.report ~top_k:5 a in
  Alcotest.(check bool) "report mentions the rollup" true
    (String.length rep > 0);
  match Json.parse (Json.to_string (Attribution.json_value ~top_k:5 a)) with
  | Ok v -> (
      (* floats print as %.9g, so the roundtrip is close, not bit-exact *)
      match Option.bind (Json.member "total" v) Json.to_float_opt with
      | Some t ->
          Alcotest.(check bool) "json total survives the roundtrip" true
            (Float.abs (t -. a.Attribution.total)
             <= 1e-8 *. Float.abs a.Attribution.total)
      | None -> Alcotest.fail "attribution json has no total")
  | Error e -> Alcotest.failf "attribution json invalid: %s" e

let test_attribution_bad_counts () =
  let net = Hlp_logic.Generators.adder_circuit 4 in
  match
    Err.protect (fun () ->
        Hlp_power.Attribution.of_counts net ~toggles:[| 1; 2; 3 |] ~cycles:10)
  with
  | Error (Err.Invalid_input _) -> ()
  | Ok _ -> Alcotest.fail "accepted mismatched toggle counts"
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let test_attribution_fir_groups () =
  let open Hlp_rtl in
  let design = Fir.build ~taps:[ 1; 2; 1 ] ~width:4 ~constant_mult:true () in
  let net = design.Fir.net in
  let n = 60 in
  let vector = vectors_for net ~seed:7 ~n in
  let a =
    Hlp_power.Attribution.profile ~group:(Fir.attribution_group design) net
      ~vector ~n
  in
  let allowed =
    "inputs"
    :: List.map Fir.category_name
         [ Fir.Exec_units; Fir.Registers_clock; Fir.Control_logic;
           Fir.Interconnect ]
  in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "group %S is a design category" g.Hlp_power.Attribution.group)
        true
        (List.mem g.Hlp_power.Attribution.group allowed))
    a.Hlp_power.Attribution.groups;
  let group_sum =
    List.fold_left
      (fun acc g -> acc +. g.Hlp_power.Attribution.g_switched)
      0.0 a.Hlp_power.Attribution.groups
  in
  Alcotest.(check (float 1e-9)) "category rollup sums to total"
    a.Hlp_power.Attribution.total group_sum

(* --- provenance --- *)

let test_provenance_symbolic () =
  let open Hlp_power in
  let net = Hlp_logic.Generators.adder_circuit 4 in
  match Probprop.estimate_guarded net with
  | Error e -> Alcotest.failf "guarded estimate failed: %s" (Err.to_string e)
  | Ok g ->
      let p = g.Probprop.provenance in
      Alcotest.(check string) "symbolic path" "symbolic" p.Probprop.estimator_used;
      Alcotest.(check bool) "no sampling engine" true (p.Probprop.engine = None);
      Alcotest.(check bool) "no fallback" false p.Probprop.symbolic_fallback;
      Alcotest.(check int) "no batches" 0 p.Probprop.batches;
      Alcotest.(check int) "empty tail" 0
        (Array.length p.Probprop.convergence_tail);
      Alcotest.(check bool) "wall time recorded" true (p.Probprop.wall_time_s >= 0.0);
      (match Json.parse (Json.to_string (Probprop.provenance_json p)) with
      | Ok v ->
          Alcotest.(check (option string)) "json estimator" (Some "symbolic")
            (Option.bind (Json.member "estimator" v) Json.to_str_opt)
      | Error e -> Alcotest.failf "provenance json invalid: %s" e)

let test_provenance_fallback () =
  let open Hlp_power in
  let net = Hlp_logic.Generators.adder_circuit 4 in
  match
    Probprop.estimate_guarded ~node_limit:4 ~seed:5 ~engine:Hlp_sim.Engine.Scalar
      ~max_cycles:600 net
  with
  | Error e -> Alcotest.failf "guarded estimate failed: %s" (Err.to_string e)
  | Ok g ->
      let p = g.Probprop.provenance in
      Alcotest.(check string) "degraded to sampling" "monte_carlo"
        p.Probprop.estimator_used;
      Alcotest.(check bool) "budget trip recorded" true p.Probprop.symbolic_fallback;
      Alcotest.(check (option string)) "engine recorded" (Some "scalar")
        p.Probprop.engine;
      Alcotest.(check int) "seed recorded" 5 p.Probprop.seed;
      Alcotest.(check bool) "batches ran" true (p.Probprop.batches > 0);
      let tail = Array.length p.Probprop.convergence_tail in
      Alcotest.(check bool) "tail holds up to 8 batch means" true
        (tail > 0 && tail <= 8);
      Alcotest.(check bool) "confidence interval present" true
        (p.Probprop.half_interval <> None)

(* the record carries only what the estimate returned, under both
   estimators: no process-wide counter deltas *)
let test_provenance_keys () =
  let open Hlp_power in
  let net = Hlp_logic.Generators.adder_circuit 4 in
  let keys node_limit =
    match Probprop.estimate_guarded ~node_limit ~seed:5 ~max_cycles:600 net with
    | Error e -> Alcotest.failf "guarded estimate failed: %s" (Err.to_string e)
    | Ok g -> (
        match Probprop.provenance_json g.Probprop.provenance with
        | Json.Obj fields -> List.map fst fields
        | _ -> Alcotest.fail "provenance is not a JSON object")
  in
  let expected =
    [ "estimator"; "engine"; "symbolic_fallback"; "engine_fallbacks"; "seed";
      "batches"; "cycles_used"; "half_interval"; "convergence_tail";
      "wall_time_s" ]
  in
  Alcotest.(check (list string)) "symbolic: ten keys" expected
    (keys Probprop.default_node_limit);
  Alcotest.(check (list string)) "sampled: ten keys" expected (keys 4)

let suite =
  [
    Alcotest.test_case "json: emit/parse roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "json: malformed input rejected" `Quick
      test_json_parse_errors;
    Alcotest.test_case "json: unicode escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "json: strict number grammar" `Quick
      test_json_number_strictness;
    Alcotest.test_case "json: float repr is shortest-roundtrip" `Quick
      test_json_float_repr_identity;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip_wall;
    Alcotest.test_case "trace: disabled is a no-op" `Quick
      test_trace_disabled_noop;
    Alcotest.test_case "trace: export is valid, sorted, well-nested" `Quick
      test_trace_nesting_and_validity;
    Alcotest.test_case "trace: span closes on exception" `Quick
      test_trace_exception_safe;
    Alcotest.test_case "trace: orphan end discarded" `Quick
      test_trace_orphan_end_discarded;
    Alcotest.test_case "trace: per-domain buffers merge" `Quick
      test_trace_multidomain;
    Alcotest.test_case "trace: overflow drops stay well-nested" `Quick
      test_trace_drop_preserves_nesting;
    QCheck_alcotest.to_alcotest qcheck_tracing_is_pure;
    Alcotest.test_case "clock: monotonic readings" `Quick test_clock_monotonic;
    Alcotest.test_case "clock: injected source drives Telemetry.time" `Quick
      test_injected_clock_telemetry;
    Alcotest.test_case "clock: injected source drives Guard deadlines" `Quick
      test_injected_clock_guard;
    Alcotest.test_case "clock: source restored on raise" `Quick
      test_injected_clock_restored_on_raise;
    Alcotest.test_case "attribution: totals and rollups" `Quick
      test_attribution_sums;
    Alcotest.test_case "attribution: mismatched counts rejected" `Quick
      test_attribution_bad_counts;
    Alcotest.test_case "attribution: FIR category grouping" `Quick
      test_attribution_fir_groups;
    Alcotest.test_case "provenance: symbolic path" `Quick
      test_provenance_symbolic;
    Alcotest.test_case "provenance: budget trip degrades to sampling" `Quick
      test_provenance_fallback;
    Alcotest.test_case "provenance: exactly the estimate's ten keys" `Quick
      test_provenance_keys;
  ]
