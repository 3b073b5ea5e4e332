open Hlp_logic

let lanes = 63

(* all 63 value bits of an OCaml int set: the "every lane true" word *)
let all_ones = -1

type s = {
  net : Netlist.t;
  caps : float array;
  values : int array;
  toggles : int array;
  lane_switched : float array;  (* length [lanes]; maintained iff track_lanes *)
  track_lanes : bool;
  ncomb : int;  (* word-wide node evaluations per settle, for telemetry *)
  mutable pops : int;  (* popcount calls since the last telemetry flush *)
  mutable ncycles : int;
  mutable counting : bool;
  mutable first : bool;  (* reset state must survive until the first input *)
}

let tel_steps = Hlp_util.Telemetry.counter "bitsim.steps"
let tel_lane_cycles = Hlp_util.Telemetry.counter "bitsim.lane_cycles"
let tel_evals = Hlp_util.Telemetry.counter "bitsim.word_evals"
let tel_popcounts = Hlp_util.Telemetry.counter "bitsim.popcount_ops"

let broadcast b = if b then all_ones else 0

(* fanin indices are validated once by the netlist builder, so the hot
   evaluation path reads pins unchecked. A top-level helper, not a closure
   per gate; the annotation keeps it off the generic array read. *)
let[@inline] pin (values : int array) f k =
  Array.unsafe_get values (Array.unsafe_get f k)

let eval_node values (node : Netlist.node) =
  let f = node.Netlist.fanin in
  match node.Netlist.kind with
  | Gate.Input | Gate.Dff -> invalid_arg "Bitsim.eval_node: not combinational"
  | Gate.Const b -> broadcast b
  | Gate.Buf -> pin values f 0
  | Gate.Not -> lnot (pin values f 0)
  | Gate.And _ ->
      let acc = ref (pin values f 0) in
      for k = 1 to Array.length f - 1 do
        acc := !acc land pin values f k
      done;
      !acc
  | Gate.Or _ ->
      let acc = ref (pin values f 0) in
      for k = 1 to Array.length f - 1 do
        acc := !acc lor pin values f k
      done;
      !acc
  | Gate.Nand _ ->
      let acc = ref (pin values f 0) in
      for k = 1 to Array.length f - 1 do
        acc := !acc land pin values f k
      done;
      lnot !acc
  | Gate.Nor _ ->
      let acc = ref (pin values f 0) in
      for k = 1 to Array.length f - 1 do
        acc := !acc lor pin values f k
      done;
      lnot !acc
  | Gate.Xor -> pin values f 0 lxor pin values f 1
  | Gate.Xnor -> lnot (pin values f 0 lxor pin values f 1)
  | Gate.Mux ->
      let sel = pin values f 0 in
      (lnot sel land pin values f 1) lor (sel land pin values f 2)

let create ?caps ?(track_lanes = false) net =
  let n = Netlist.num_nodes net in
  let s =
    {
      net;
      caps =
        (match caps with
        | Some c ->
            if Array.length c <> n then invalid_arg "Bitsim.create: caps length";
            c
        | None -> Netlist.node_capacitance net);
      values = Array.make n 0;
      toggles = Array.make n 0;
      lane_switched = Array.make lanes 0.0;
      track_lanes;
      ncomb =
        Array.fold_left
          (fun acc (node : Netlist.node) ->
            match node.Netlist.kind with
            | Gate.Input | Gate.Dff -> acc
            | _ -> acc + 1)
          0 net.Netlist.nodes;
      pops = 0;
      ncycles = 0;
      counting = true;
      first = true;
    }
  in
  (* initial state, every lane identical: dffs at their init value, inputs
     low, combinational logic settled; nothing is charged for power-up *)
  Array.iteri
    (fun j w -> s.values.(w) <- broadcast net.Netlist.dff_init.(j))
    net.Netlist.dffs;
  Array.iteri
    (fun i (node : Netlist.node) ->
      match node.Netlist.kind with
      | Gate.Input | Gate.Dff -> ()
      | _ -> s.values.(i) <- eval_node s.values node)
    net.Netlist.nodes;
  s

(* Per-lane capacitance scan: positions of the set bits of each byte, so a
   63-bit delta word costs 8 byte probes plus one float add per actually
   toggled lane (the 256-entry table stays L1-resident). Within a node the
   lane visit order is irrelevant — each lane receives at most one addition
   per node — so per-lane sums stay bit-identical to a chronological scalar
   accumulation. *)
let byte_pos_off, byte_pos_flat =
  let off = Array.make 257 0 in
  for v = 0 to 255 do
    off.(v + 1) <- off.(v) + Hlp_util.Bits.popcount v
  done;
  let flat = Array.make off.(256) 0 in
  let idx = ref 0 in
  for v = 0 to 255 do
    for b = 0 to 7 do
      if v land (1 lsl b) <> 0 then begin
        flat.(!idx) <- b;
        incr idx
      end
    done
  done;
  (off, flat)

let scan_lanes ls c d =
  let d = ref d and base = ref 0 in
  while !d <> 0 do
    let byte = !d land 0xff in
    if byte <> 0 then begin
      let b = !base in
      let hi = Array.unsafe_get byte_pos_off (byte + 1) - 1 in
      for k = Array.unsafe_get byte_pos_off byte to hi do
        let l = b + Array.unsafe_get byte_pos_flat k in
        Array.unsafe_set ls l (Array.unsafe_get ls l +. c)
      done
    end;
    d := !d lsr 8;
    base := !base + 8
  done

let[@inline] set s i v =
  let old = Array.unsafe_get s.values i in
  if old <> v then begin
    Array.unsafe_set s.values i v;
    if s.counting then begin
      let d = old lxor v in
      Array.unsafe_set s.toggles i
        (Array.unsafe_get s.toggles i + Hlp_util.Bits.popcount d);
      s.pops <- s.pops + 1;
      if s.track_lanes then
        scan_lanes s.lane_switched (Array.unsafe_get s.caps i) d
    end
  end

let step s inputs =
  let net = s.net in
  assert (Array.length inputs = Array.length net.Netlist.inputs);
  (* fault-injection point: a gate evaluation raising mid-step *)
  Hlp_util.Faultinject.trip Hlp_util.Faultinject.Gate_eval;
  (* clock edge: latch data pins as they settled last cycle; the first edge
     re-captures the reset state *)
  if s.first then s.first <- false
  else begin
    let nexts =
      Array.map
        (fun w -> s.values.(net.Netlist.nodes.(w).Netlist.fanin.(0)))
        net.Netlist.dffs
    in
    Array.iteri (fun j w -> set s w nexts.(j)) net.Netlist.dffs
  end;
  let ins = net.Netlist.inputs in
  for k = 0 to Array.length ins - 1 do
    set s ins.(k) inputs.(k)
  done;
  (* settle combinational logic in topological (id) order *)
  let nodes = net.Netlist.nodes in
  for i = 0 to Array.length nodes - 1 do
    let node = nodes.(i) in
    match node.Netlist.kind with
    | Gate.Input | Gate.Dff -> ()
    | _ -> set s i (eval_node s.values node)
  done;
  s.ncycles <- s.ncycles + 1;
  if Hlp_util.Telemetry.enabled () then begin
    Hlp_util.Telemetry.incr tel_steps;
    Hlp_util.Telemetry.add tel_lane_cycles lanes;
    Hlp_util.Telemetry.add tel_evals s.ncomb;
    Hlp_util.Telemetry.add tel_popcounts s.pops
  end;
  s.pops <- 0

let value s w = s.values.(w)
let cycles s = s.ncycles
let toggle_counts s = s.toggles

let switched_capacitance s =
  (* derived from the exact integer toggle counts so it equals
     sum_i caps(i) * toggles(i) bit-for-bit, independent of step order *)
  let acc = ref 0.0 in
  Array.iteri
    (fun i t -> acc := !acc +. (s.caps.(i) *. float_of_int t))
    s.toggles;
  !acc

let lane_switched_capacitance s =
  if not s.track_lanes then
    invalid_arg "Bitsim.lane_switched_capacitance: created without ~track_lanes";
  Array.copy s.lane_switched

let set_counting s b = s.counting <- b

let reset_counters s =
  Array.fill s.toggles 0 (Array.length s.toggles) 0;
  Array.fill s.lane_switched 0 lanes 0.0;
  s.ncycles <- 0

let pack_lanes vectors =
  let nlanes = Array.length vectors in
  if nlanes = 0 || nlanes > lanes then invalid_arg "Bitsim.pack_lanes";
  let nin = Array.length vectors.(0) in
  let words = Array.make nin 0 in
  for j = 0 to nlanes - 1 do
    let v = vectors.(j) in
    if Array.length v <> nin then invalid_arg "Bitsim.pack_lanes: ragged vectors";
    let bit = 1 lsl j in
    for k = 0 to nin - 1 do
      if Array.unsafe_get v k then
        Array.unsafe_set words k (Array.unsafe_get words k lor bit)
    done
  done;
  words

let output_words s =
  let outs = s.net.Netlist.outputs in
  let res = Array.make lanes 0 in
  Array.iteri
    (fun k (_, w) ->
      let v = s.values.(w) in
      if v <> 0 then
        for j = 0 to lanes - 1 do
          if (v lsr j) land 1 = 1 then res.(j) <- res.(j) lor (1 lsl k)
        done)
    outs;
  res

let run s input_at n =
  for i = 0 to n - 1 do
    step s (input_at i)
  done
