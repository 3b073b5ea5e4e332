type wire = int

type node = { kind : Gate.kind; fanin : wire array }

type t = {
  nodes : node array;
  inputs : wire array;
  outputs : (string * wire) array;
  dffs : wire array;
  dff_init : bool array;
  input_names : string array;
  fingerprint : int64;
}

let num_nodes t = Array.length t.nodes

let num_gates t =
  Array.fold_left
    (fun acc n ->
      match n.kind with Gate.Input | Gate.Const _ | Gate.Dff -> acc | _ -> acc + 1)
    0 t.nodes

let num_dffs t = Array.length t.dffs

(* FNV-1a over the full structure. Order matters everywhere it is fed, so
   any change to a gate, a wire, or a port name changes the fingerprint.
   The value is persisted (checkpoint, replay-cache and snapshot headers),
   so it must never change: an int is fed as the 8 little-endian bytes of
   [Int64.of_int i], a string byte by byte, a bool as one byte 0 or 1.

   [Builder.finish] walks once and stores the result in the netlist
   (netlists are immutable after construction), so [fingerprint] is a
   field read. The helpers are closed and inlined and the hash lives in a
   local ref, so the compiler keeps it unboxed and the walk allocates
   only its result. Mixing a zero byte is a multiply by the prime (xor
   with 0 changes nothing), so an int's high zero bytes cost one multiply
   by a power of the prime, the same value mod 2^64. *)
let fnv_prime = 0x100000001b3L

(* [prime_pow.(k)] is the prime to the [k]: [k] zero bytes mixed at once *)
let prime_pow =
  let p = Array.make 9 1L in
  for k = 1 to 8 do
    p.(k) <- Int64.mul p.(k - 1) fnv_prime
  done;
  p

let[@inline] mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* [asr] keeps the sign bits [Int64.of_int] extends with, so a negative
   int never reaches 0 and mixes all eight bytes *)
let[@inline] mix_int h i =
  let h = ref h and v = ref i and left = ref 8 in
  while !v <> 0 && !left > 0 do
    h := mix_byte !h !v;
    v := !v asr 8;
    decr left
  done;
  Int64.mul !h prime_pow.(!left)

let[@inline] mix_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := mix_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fingerprint_walk ~nodes ~inputs ~input_names ~outputs ~dffs ~dff_init =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Array.length nodes - 1 do
    let n = nodes.(i) in
    h := mix_string !h (Gate.name n.kind);
    let fanin = n.fanin in
    h := mix_int !h (Array.length fanin);
    for k = 0 to Array.length fanin - 1 do
      h := mix_int !h fanin.(k)
    done
  done;
  for k = 0 to Array.length inputs - 1 do
    h := mix_int !h inputs.(k)
  done;
  for k = 0 to Array.length input_names - 1 do
    h := mix_string !h input_names.(k)
  done;
  for k = 0 to Array.length outputs - 1 do
    let name, w = outputs.(k) in
    h := mix_int (mix_string !h name) w
  done;
  for k = 0 to Array.length dffs - 1 do
    h := mix_int !h dffs.(k)
  done;
  for k = 0 to Array.length dff_init - 1 do
    h := mix_byte !h (Bool.to_int dff_init.(k))
  done;
  !h

module Builder = struct
  type b = {
    mutable arr : node array;
    mutable count : int;
    mutable rev_inputs : (wire * string) list;
    mutable rev_outputs : (string * wire) list;
    mutable rev_dffs : (wire * bool) list;
    pending : (int, unit) Hashtbl.t;  (* dffs whose data pin is unset *)
  }

  let dummy = { kind = Gate.Const false; fanin = [||] }

  let create () =
    { arr = Array.make 64 dummy; count = 0; rev_inputs = []; rev_outputs = [];
      rev_dffs = []; pending = Hashtbl.create 8 }

  let push b node =
    if b.count = Array.length b.arr then begin
      let bigger = Array.make (2 * b.count) dummy in
      Array.blit b.arr 0 bigger 0 b.count;
      b.arr <- bigger
    end;
    b.arr.(b.count) <- node;
    b.count <- b.count + 1

  let count b = b.count

  let add b kind fanin =
    assert (Array.length fanin = Gate.arity kind);
    Array.iter (fun w -> assert (w >= 0 && w < b.count)) fanin;
    let id = b.count in
    push b { kind; fanin };
    id

  let input ?name b =
    let id = add b Gate.Input [||] in
    let name = match name with Some n -> n | None -> Printf.sprintf "in%d" id in
    b.rev_inputs <- (id, name) :: b.rev_inputs;
    id

  let inputs ?(prefix = "in") b n =
    Array.init n (fun i -> input ~name:(Printf.sprintf "%s%d" prefix i) b)

  let const_ b v = add b (Gate.Const v) [||]

  let gate b kind fanin = add b kind fanin

  let buf b w = add b Gate.Buf [| w |]
  let not_ b w = add b Gate.Not [| w |]

  let nary b mk neutral = function
    | [] -> const_ b neutral
    | [ w ] -> w
    | ws -> add b (mk (List.length ws)) (Array.of_list ws)

  let and_ b ws = nary b (fun n -> Gate.And n) true ws
  let or_ b ws = nary b (fun n -> Gate.Or n) false ws

  let nand_ b ws =
    match ws with
    | [] -> const_ b false
    | [ w ] -> not_ b w
    | ws -> add b (Gate.Nand (List.length ws)) (Array.of_list ws)

  let nor_ b ws =
    match ws with
    | [] -> const_ b true
    | [ w ] -> not_ b w
    | ws -> add b (Gate.Nor (List.length ws)) (Array.of_list ws)

  let xor_ b a c = add b Gate.Xor [| a; c |]
  let xnor_ b a c = add b Gate.Xnor [| a; c |]
  let mux b ~sel ~a0 ~a1 = add b Gate.Mux [| sel; a0; a1 |]

  let dff ?(init = false) b d =
    let id = add b Gate.Dff [| d |] in
    b.rev_dffs <- (id, init) :: b.rev_dffs;
    id

  let dff_feedback ?(init = false) b f =
    let q = b.count in
    push b { kind = Gate.Dff; fanin = [| q |] };
    Hashtbl.replace b.pending q ();
    b.rev_dffs <- (q, init) :: b.rev_dffs;
    let d = f q in
    assert (d >= 0 && d < b.count);
    b.arr.(q) <- { kind = Gate.Dff; fanin = [| d |] };
    Hashtbl.remove b.pending q;
    q

  let output b name w =
    assert (w >= 0 && w < b.count);
    b.rev_outputs <- (name, w) :: b.rev_outputs

  let finish b =
    if Hashtbl.length b.pending > 0 then
      failwith "Netlist.Builder.finish: unconnected dff data pin";
    let nodes = Array.sub b.arr 0 b.count in
    let ins = List.rev b.rev_inputs in
    let regs = List.rev b.rev_dffs in
    let inputs = Array.of_list (List.map fst ins)
    and input_names = Array.of_list (List.map snd ins)
    and outputs = Array.of_list (List.rev b.rev_outputs)
    and dffs = Array.of_list (List.map fst regs)
    and dff_init = Array.of_list (List.map snd regs) in
    {
      nodes;
      inputs;
      input_names;
      outputs;
      dffs;
      dff_init;
      fingerprint =
        fingerprint_walk ~nodes ~inputs ~input_names ~outputs ~dffs ~dff_init;
    }
end

let fanout_counts t =
  let counts = Array.make (num_nodes t) 0 in
  Array.iter
    (fun n -> Array.iter (fun w -> counts.(w) <- counts.(w) + 1) n.fanin)
    t.nodes;
  counts

(* Statistical wire-load model: short nets for low fanout, superlinear
   growth after that, as in the paper's "custom wire-load models". *)
let wire_load fanout =
  if fanout = 0 then 0.0 else 0.3 +. (0.25 *. float_of_int fanout)

let node_capacitance t =
  let caps =
    Array.map (fun n -> Gate.intrinsic_capacitance n.kind) t.nodes
  in
  let fanout = Array.make (num_nodes t) 0 in
  Array.iter
    (fun n ->
      Array.iter
        (fun w ->
          fanout.(w) <- fanout.(w) + 1;
          caps.(w) <- caps.(w) +. Gate.input_capacitance n.kind)
        n.fanin)
    t.nodes;
  Array.iteri (fun i f -> caps.(i) <- caps.(i) +. wire_load f) fanout;
  caps

let total_capacitance t = Array.fold_left ( +. ) 0.0 (node_capacitance t)

let gate_equivalents t =
  Array.fold_left (fun acc n -> acc +. Gate.gate_equivalents n.kind) 0.0 t.nodes

let levels t =
  let arr = Array.make (num_nodes t) 0.0 in
  Array.iteri
    (fun i n ->
      match n.kind with
      | Gate.Input | Gate.Const _ | Gate.Dff -> arr.(i) <- 0.0
      | kind ->
          let worst =
            Array.fold_left (fun acc w -> max acc arr.(w)) 0.0 n.fanin
          in
          arr.(i) <- worst +. Gate.delay kind)
    t.nodes;
  arr

let critical_path t = Array.fold_left max 0.0 (levels t)

(* Integer levelization for the compiled replay kernel: sources (inputs,
   registers, zero-fanin constant drivers) sit at level 0; a combinational
   gate sits one past its deepest fanin. Within a level no gate reads
   another, so any per-level evaluation order settles identically to the
   id-order interpreter — the property the kernel's reordered
   struct-of-arrays evaluation rests on. Nodes nothing consumes (dangling
   outputs, dead cones) still get a level: they toggle and burn power in
   the interpreter, so the kernel must evaluate them too. *)
let comb_levels t =
  let lv = Array.make (num_nodes t) 0 in
  Array.iteri
    (fun i n ->
      match n.kind with
      | Gate.Input | Gate.Const _ | Gate.Dff -> lv.(i) <- 0
      | _ ->
          let worst = Array.fold_left (fun acc w -> max acc lv.(w)) 0 n.fanin in
          lv.(i) <- worst + 1)
    t.nodes;
  lv

let logic_depth t =
  let d = Array.make (num_nodes t) 0 in
  let deepest = ref 0 in
  Array.iteri
    (fun i n ->
      match n.kind with
      | Gate.Input | Gate.Const _ | Gate.Dff -> d.(i) <- 0
      | _ ->
          let worst = Array.fold_left (fun acc w -> max acc d.(w)) 0 n.fanin in
          d.(i) <- worst + 1;
          deepest := max !deepest d.(i))
    t.nodes;
  !deepest

let fingerprint t = t.fingerprint

let validate t =
  let n = num_nodes t in
  Array.iteri
    (fun i node ->
      if Array.length node.fanin <> Gate.arity node.kind then
        failwith (Printf.sprintf "node %d: arity mismatch for %s" i (Gate.name node.kind));
      Array.iter
        (fun w ->
          if w < 0 || w >= n then failwith (Printf.sprintf "node %d: fanin out of range" i);
          match node.kind with
          | Gate.Dff -> ()
          | _ ->
              if w >= i then
                failwith (Printf.sprintf "node %d: combinational fanin %d not earlier" i w))
        node.fanin)
    t.nodes;
  Array.iter
    (fun w ->
      match t.nodes.(w).kind with
      | Gate.Dff -> ()
      | _ -> failwith "dffs array contains a non-dff node")
    t.dffs;
  Array.iter (fun (_, w) -> if w < 0 || w >= n then failwith "output out of range") t.outputs

let stats_string t =
  Printf.sprintf
    "%d nodes (%d gates, %d inputs, %d dffs, %d outputs), Ctot=%.1f, GE=%.1f, depth=%d"
    (num_nodes t) (num_gates t)
    (Array.length t.inputs)
    (num_dffs t)
    (Array.length t.outputs)
    (total_capacitance t) (gate_equivalents t) (logic_depth t)
