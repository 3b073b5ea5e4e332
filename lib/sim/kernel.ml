open Hlp_logic

(* Compiled struct-of-arrays replay kernel.

   The pointer-chasing interpreter (Funcsim/Bitsim) dispatches every gate
   evaluation through the netlist data structure: load a node record,
   match on a boxed [Gate.kind], chase the fanin array, call [set]. This
   module compiles all of that away once per netlist:

   - the combinational gates are flattened into contiguous arrays
     ("slots"): destination node id, specialized pin indices for
     arity <= 3, and a CSR pool (offsets + flat index array) for n-ary
     gates, plus the capacitance table — the whole schedule is a handful
     of contiguous int/float arrays;
   - slots are topologically levelized ({!Netlist.comb_levels}) and
     grouped by opcode within each level, so the inner loop of a segment
     is a branch-free run of identical word-wide operations;
   - one C primitive ([settle], kernel_stubs.c) walks the segments from a
     flat (op, lo, hi) array, switching on the opcode once per segment,
     and on a counted step adds each node's toggles as it writes the
     node; a step makes one call into C for the settle and allocates
     nothing;
   - every array access in the step and in the C primitives is
     unchecked, justified by a single construction-time bounds proof
     ({!verify}): compilation fails loudly if any slot, pin, or level
     violates its range or ordering invariant, and the arrays are never
     mutated afterwards.

   Bit-identity with {!Bitsim} (the contract the differential wall in
   [test/test_kernel.ml] pins): values are words of 63 lanes evaluated by
   the same bitwise expressions; toggle counters are the same integer
   popcounts, whose sums are order-free; and the per-lane float
   accumulation replays Bitsim's chronological charge order exactly —
   registers in declaration order, then inputs, then combinational nodes
   in id order ([acct_order]) — because float addition is non-associative
   and the levelized evaluation order must not leak into the sums. *)

let lanes = Bitsim.lanes
let all_ones = -1
let broadcast b = if b then all_ones else 0

(* slot opcodes: dense ints, so the switch in the C settle is a jump
   table taken once per segment, not once per gate (kernel_stubs.c lists
   them in the same order) *)
let op_buf = 0
let op_not = 1
let op_and2 = 2
let op_or2 = 3
let op_nand2 = 4
let op_nor2 = 5
let op_xor = 6
let op_xnor = 7
let op_mux = 8
let op_andn = 9
let op_orn = 10
let op_nandn = 11
let op_norn = 12

let opcode_name = function
  | 0 -> "buf" | 1 -> "not" | 2 -> "and2" | 3 -> "or2" | 4 -> "nand2"
  | 5 -> "nor2" | 6 -> "xor" | 7 -> "xnor" | 8 -> "mux" | 9 -> "andn"
  | 10 -> "orn" | 11 -> "nandn" | 12 -> "norn" | _ -> "?"

(* Const / Input / Dff never occupy a slot: constants are fixed at
   creation, inputs and registers are written by the step driver. *)
let opcode_of = function
  | Gate.Input | Gate.Dff | Gate.Const _ -> None
  | Gate.Buf -> Some op_buf
  | Gate.Not -> Some op_not
  | Gate.And n -> Some (if n = 2 then op_and2 else op_andn)
  | Gate.Or n -> Some (if n = 2 then op_or2 else op_orn)
  | Gate.Nand n -> Some (if n = 2 then op_nand2 else op_nandn)
  | Gate.Nor n -> Some (if n = 2 then op_nor2 else op_norn)
  | Gate.Xor -> Some op_xor
  | Gate.Xnor -> Some op_xnor
  | Gate.Mux -> Some op_mux

(* Lane-major charge accumulation, the compiled replacement for
   [Bitsim.scan_lanes]. The per-lane sums the replay consumers read are
   ordered float sums: lane [l] accumulates [caps.(i)] over the nodes [i]
   that toggled in lane [l], in the chronological accounting order — and
   that order is the {e same} for every lane. So the counted step records
   each non-zero delta word once, with its cap, densely in accounting
   order ([account] below), and this C primitive (kernel_stubs.c) then
   sweeps the dense (delta, cap) arrays lane-major, holding the lane
   accumulators in registers: each starts at the lane's running value and
   folds in exactly [c] when the lane's delta bit is set and [+0.0] when
   it is not, in node order. [x +. +0.0] is bit-exact for every [x] a
   lane sum can hold because the caps are proven finite and non-negative
   at compile time ([lanes_fast]) — so the result is bit-identical to the
   scatter walk while the loop is bound by float throughput instead of
   dependent table loads; the differential wall asserts the identity on
   every test circuit. The same argument makes the zero deltas [account]
   leaves out exact to skip: a zero delta contributes [+0.0] to every
   lane. The [@@noalloc] mark is sound: the primitive allocates nothing
   and never calls back into the runtime. *)
external accumulate_lanes :
  float array -> int array -> float array -> int -> unit
  = "hlp_kernel_accumulate_lanes"
  [@@noalloc]

(* [settle v old segs dst fa fb fc foff fidx latched toggles count]
   settles the schedule into [v] and, with [count], adds each written
   node's toggles to [toggles] — the whole integer half of a counted step.
   [gather_deltas old nw acct_order caps_acct deltas dcaps] writes a
   tracked step's non-zero delta words and their caps densely, in
   accounting order, and returns how many it wrote. Both are documented
   in kernel_stubs.c; every index they read is proven in range by
   {!verify}, and the state's arrays have the node count's length. *)
external settle :
  int array -> int array -> int array -> int array -> int array -> int array ->
  int array -> int array -> int array -> int array -> int array -> bool -> unit
  = "hlp_kernel_settle_byte" "hlp_kernel_settle"
  [@@noalloc]

external gather_deltas :
  int array -> int array -> int array -> float array -> int array ->
  float array -> int
  = "hlp_kernel_gather_deltas_byte" "hlp_kernel_gather_deltas"
  [@@noalloc]

(* [settle_wide v old segs dst fa fb fc foff fidx latched toggles] is the
   counted [settle] over four units at once, node [i]'s unit-[u] word at
   index [4i + u] of [v], [old] and [toggles] (kernel_stubs.c). It exists
   only where [wide_available ()] holds: x86-64 built by GCC or clang, on
   a CPU with AVX2. *)
external settle_wide :
  int array -> int array -> int array -> int array -> int array -> int array ->
  int array -> int array -> int array -> int array -> int array -> unit
  = "hlp_kernel_settle_wide_byte" "hlp_kernel_settle_wide"
  [@@noalloc]

external wide_available : unit -> bool = "hlp_kernel_wide_available"
  [@@noalloc]

type t = {
  net : Netlist.t;
  caps : float array;
  n : int;  (* nodes *)
  nslots : int;  (* combinational non-constant gates *)
  (* struct-of-arrays schedule, in evaluation (level, opcode, id) order *)
  dst : int array;  (* node id per slot *)
  fa : int array;  (* pin 0 per slot (0 when unused, proven in range) *)
  fb : int array;  (* pin 1 per slot *)
  fc : int array;  (* pin 2 per slot (mux select is fa) *)
  foff : int array;  (* CSR offsets into [fidx], length nslots+1 *)
  fidx : int array;  (* flat fanin pool *)
  segs : int array;
      (* same-opcode slot runs, level-major: (op, lo, hi) per segment *)
  nlevels : int;
  level_off : int array;  (* seg index boundary per level, length nlevels+1 *)
  latched : int array;  (* register then input ids: [acct_order]'s prefix *)
  acct_order : int array;  (* Bitsim's chronological charge order *)
  caps_acct : float array;  (* caps gathered into accounting order *)
  lanes_fast : bool;
      (* every cap finite and non-negative, so [accumulate_lanes] is
         bit-identical to the scatter walk (see its comment) *)
  dff_dst : int array;  (* register node ids, declaration order *)
  dff_src : int array;  (* data-pin node id per register *)
  input_ids : int array;
  reset_state : int array;
      (* the settled reset condition: registers and constants at their
         broadcast words, inputs zero, every slot settled from those *)
}

let nsegs p = Array.length p.segs / 3
let seg_op p g = p.segs.(3 * g)
let seg_lo p g = p.segs.((3 * g) + 1)
let seg_hi p g = p.segs.((3 * g) + 2)

(* --- the construction-time bounds proof ---

   Everything the C settle and the step access unchecked is checked
   here, once, after the schedule is built: slot destinations and every
   pin index are in [0, n); every slot has a pin; CSR offsets are
   monotone and cover exactly [fidx]; specialized pins agree with the CSR
   pool; every pin of a slot settles strictly before the slot does (lower
   level, or a level-0 source); segments tile [0, nslots) exactly, stay
   inside one level and carry their slots' opcode; the accounting order
   is a permutation of the node ids; and every node but a constant is
   written exactly once per step, as a latched node or a slot. A
   failure here is a compiler bug, reported as [Failure] with a
   diagnostic — the run never reaches an unchecked access. *)
let verify p =
  let fail fmt = Printf.ksprintf failwith fmt in
  let check_id what i =
    if i < 0 || i >= p.n then fail "Kernel.verify: %s %d out of range" what i
  in
  if Array.length p.foff <> p.nslots + 1 then fail "Kernel.verify: foff length";
  if p.foff.(0) <> 0 || p.foff.(p.nslots) <> Array.length p.fidx then
    fail "Kernel.verify: CSR does not cover the pool";
  let levels = Netlist.comb_levels p.net in
  for s = 0 to p.nslots - 1 do
    check_id "dst" p.dst.(s);
    if p.foff.(s) > p.foff.(s + 1) then fail "Kernel.verify: CSR not monotone";
    let arity = p.foff.(s + 1) - p.foff.(s) in
    if arity < 1 then fail "Kernel.verify: slot %d has no pins" s;
    for k = p.foff.(s) to p.foff.(s + 1) - 1 do
      check_id "fanin" p.fidx.(k);
      if levels.(p.fidx.(k)) >= levels.(p.dst.(s)) then
        fail "Kernel.verify: slot %d reads node %d of its own or a later level"
          s p.fidx.(k)
    done;
    if p.fa.(s) <> p.fidx.(p.foff.(s)) then
      fail "Kernel.verify: fa disagrees with the CSR pool at slot %d" s;
    if arity >= 2 && p.fb.(s) <> p.fidx.(p.foff.(s) + 1) then
      fail "Kernel.verify: fb disagrees with the CSR pool at slot %d" s;
    if arity >= 3 && p.fc.(s) <> p.fidx.(p.foff.(s) + 2) then
      fail "Kernel.verify: fc disagrees with the CSR pool at slot %d" s;
    check_id "fa" p.fa.(s);
    check_id "fb" p.fb.(s);
    check_id "fc" p.fc.(s)
  done;
  (* segments tile the slots and never straddle a level boundary *)
  if Array.length p.segs mod 3 <> 0 then fail "Kernel.verify: segs length";
  let covered = ref 0 in
  for gi = 0 to nsegs p - 1 do
    let op = seg_op p gi and lo = seg_lo p gi and hi = seg_hi p gi in
    if lo <> !covered then fail "Kernel.verify: segment %d leaves a gap" gi;
    if hi < lo || hi >= p.nslots then fail "Kernel.verify: bad segment %d" gi;
    if levels.(p.dst.(lo)) <> levels.(p.dst.(hi)) then
      fail "Kernel.verify: segment %d straddles levels" gi;
    for s = lo to hi do
      match opcode_of p.net.Netlist.nodes.(p.dst.(s)).Netlist.kind with
      | Some o when o = op -> ()
      | _ -> fail "Kernel.verify: slot %d opcode mismatch in segment %d" s gi
    done;
    covered := hi + 1
  done;
  if !covered <> p.nslots then fail "Kernel.verify: segments do not cover slots";
  if Array.length p.level_off <> p.nlevels + 1 then
    fail "Kernel.verify: level_off length";
  (* the accounting order is a permutation of all node ids *)
  if Array.length p.acct_order <> p.n then fail "Kernel.verify: acct length";
  if Array.length p.caps_acct <> p.n then
    fail "Kernel.verify: caps_acct length";
  let seen = Array.make p.n false in
  Array.iter
    (fun i ->
      check_id "acct" i;
      if seen.(i) then fail "Kernel.verify: node %d accounted twice" i;
      seen.(i) <- true)
    p.acct_order;
  (* every node but a constant is written exactly once per step, so the
     settle's counts miss no toggle *)
  let writes = Array.make p.n 0 in
  let write what i =
    check_id what i;
    writes.(i) <- writes.(i) + 1
  in
  Array.iter (write "latched") p.latched;
  Array.iter (write "dst") p.dst;
  Array.iteri
    (fun i (node : Netlist.node) ->
      let once = match node.Netlist.kind with Gate.Const _ -> 0 | _ -> 1 in
      if writes.(i) <> once then
        fail "Kernel.verify: node %d written %d times" i writes.(i))
    p.net.Netlist.nodes;
  Array.iter (fun i -> check_id "dff_dst" i) p.dff_dst;
  Array.iter (fun i -> check_id "dff_src" i) p.dff_src;
  Array.iter (fun i -> check_id "input" i) p.input_ids

let tel_compiles = Hlp_util.Telemetry.counter "kernel.compiles"
let tel_compile_time = Hlp_util.Telemetry.timer "kernel.compile"
let tel_steps = Hlp_util.Telemetry.counter "kernel.steps"
let tel_lane_cycles = Hlp_util.Telemetry.counter "kernel.lane_cycles"
let tel_evals = Hlp_util.Telemetry.counter "kernel.word_evals"
let tel_popcounts = Hlp_util.Telemetry.counter "kernel.popcount_ops"

let compile ?caps net =
  Hlp_util.Telemetry.incr tel_compiles;
  Hlp_util.Telemetry.time tel_compile_time @@ fun () ->
  Hlp_util.Trace.span
    ~args:(fun () ->
      [ ("gates", Hlp_util.Json.Int (Netlist.num_gates net));
        ("nodes", Hlp_util.Json.Int (Netlist.num_nodes net)) ])
    "kernel.compile"
  @@ fun () ->
  Netlist.validate net;
  let n = Netlist.num_nodes net in
  let caps =
    match caps with
    | Some c ->
        if Array.length c <> n then invalid_arg "Kernel.compile: caps length";
        c
    | None -> Netlist.node_capacitance net
  in
  let levels = Netlist.comb_levels net in
  let nodes = net.Netlist.nodes in
  (* slots in (level, opcode, id) order: level-major for correctness,
     opcode-grouped within a level so segments are maximal runs, id order
     inside a group for determinism *)
  let slot_ids = ref [] in
  for i = n - 1 downto 0 do
    if opcode_of nodes.(i).Netlist.kind <> None then slot_ids := i :: !slot_ids
  done;
  let order = Array.of_list !slot_ids in
  let op_of i = Option.get (opcode_of nodes.(i).Netlist.kind) in
  Array.sort
    (fun x y ->
      let c = compare levels.(x) levels.(y) in
      if c <> 0 then c
      else
        let c = compare (op_of x) (op_of y) in
        if c <> 0 then c else compare x y)
    order;
  let nslots = Array.length order in
  let dst = Array.make nslots 0 in
  let fa = Array.make nslots 0 in
  let fb = Array.make nslots 0 in
  let fc = Array.make nslots 0 in
  let npins =
    Array.fold_left
      (fun acc i -> acc + Array.length nodes.(i).Netlist.fanin)
      0 order
  in
  let foff = Array.make (nslots + 1) 0 in
  let fidx = Array.make (max 1 npins) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun s i ->
      dst.(s) <- i;
      let f = nodes.(i).Netlist.fanin in
      foff.(s) <- !pos;
      Array.iteri
        (fun k w ->
          fidx.(!pos + k) <- w;
          if k = 0 then fa.(s) <- w
          else if k = 1 then fb.(s) <- w
          else if k = 2 then fc.(s) <- w)
        f;
      pos := !pos + Array.length f)
    order;
  foff.(nslots) <- !pos;
  let fidx = if npins = 0 then [||] else fidx in
  let foff = if npins = 0 then Array.make (nslots + 1) 0 else foff in
  (* maximal same-opcode runs, respecting level boundaries by construction
     of the sort order *)
  let segs = ref [] in
  let s = ref 0 in
  while !s < nslots do
    let op = op_of dst.(!s) and lv = levels.(dst.(!s)) in
    let e = ref !s in
    while
      !e + 1 < nslots
      && op_of dst.(!e + 1) = op
      && levels.(dst.(!e + 1)) = lv
    do
      incr e
    done;
    segs := !e :: !s :: op :: !segs;
    s := !e + 1
  done;
  let segs = Array.of_list (List.rev !segs) in
  let nsegs = Array.length segs / 3 in
  let nlevels =
    if nslots = 0 then 0 else levels.(dst.(nslots - 1))
  in
  let level_off = Array.make (nlevels + 1) 0 in
  (* level l's segments are level_off.(l-1) .. level_off.(l)-1 when levels
     are 1-based for slots; store boundaries by scanning *)
  let () =
    let gi = ref 0 in
    for l = 1 to nlevels do
      level_off.(l - 1) <- !gi;
      while !gi < nsegs && levels.(dst.(segs.((3 * !gi) + 1))) = l do
        incr gi
      done
    done;
    if nlevels > 0 then level_off.(nlevels) <- nsegs
  in
  (* chronological accounting order: registers (declaration order), then
     primary inputs, then every other node in id order — exactly the
     order Bitsim's [set] charges lanes in *)
  let is_latched = Array.make n false in
  Array.iter (fun w -> is_latched.(w) <- true) net.Netlist.dffs;
  Array.iter (fun w -> is_latched.(w) <- true) net.Netlist.inputs;
  let rest = ref [] in
  for i = n - 1 downto 0 do
    if not is_latched.(i) then rest := i :: !rest
  done;
  let latched = Array.append net.Netlist.dffs net.Netlist.inputs in
  let acct_order = Array.append latched (Array.of_list !rest) in
  let reset_state = Array.make n 0 in
  Array.iteri
    (fun i (node : Netlist.node) ->
      match node.Netlist.kind with
      | Gate.Const b -> reset_state.(i) <- broadcast b
      | _ -> ())
    nodes;
  Array.iteri
    (fun j w -> reset_state.(w) <- broadcast net.Netlist.dff_init.(j))
    net.Netlist.dffs;
  let p =
    {
      net;
      caps;
      n;
      nslots;
      dst;
      fa;
      fb;
      fc;
      foff;
      fidx;
      segs;
      nlevels;
      level_off;
      latched;
      acct_order;
      caps_acct = Array.map (fun i -> caps.(i)) acct_order;
      lanes_fast =
        Array.for_all (fun c -> Float.is_finite c && c >= 0.0) caps;
      dff_dst = net.Netlist.dffs;
      dff_src =
        Array.map
          (fun w -> nodes.(w).Netlist.fanin.(0))
          net.Netlist.dffs;
      input_ids = net.Netlist.inputs;
      reset_state;
    }
  in
  verify p;
  (* settle the reset image through the compiled schedule, once: every
     state resets to this, and nothing is charged for power-up, same as
     the interpreters *)
  settle p.reset_state p.reset_state p.segs p.dst p.fa p.fb p.fc p.foff p.fidx
    p.latched [||] false;
  p

(* --- fingerprint-keyed kernel cache ---

   Compiling is cheap (one pass over the netlist) but the consumers that
   matter — Monte Carlo campaigns, the batch runner, the estimation
   service — replay the same circuit thousands of times, often
   rebuilding the Netlist value per request. The cache turns those
   recompiles into a fingerprint lookup; compiled plans are immutable,
   so sharing them across domains is safe. A custom capacitance table is
   not part of the structural fingerprint, so [~caps] bypasses the
   cache. *)

let cache : t Netcache.t = Netcache.create ~capacity:32 ~name:"kernel" ()

let of_netlist ?caps net =
  match caps with
  | Some _ -> compile ?caps net
  | None ->
      Netcache.find_or_compute cache ~key:(Netlist.fingerprint net) (fun () ->
          compile net)

let clear_cache () = ignore (Netcache.clear cache)
let cache_length () = Netcache.length cache

(* --- replay state --- *)

type s = {
  plan : t;
  mutable cur : int array;  (* settled word per node, this cycle *)
  mutable prv : int array;  (* settled word per node, previous cycle *)
  (* scratch for the lane sweep, empty unless lanes are tracked: the
     step's non-zero delta words and their caps, accounting order *)
  deltas : int array;
  dcaps : float array;
  toggles : int array;
  lane_switched : float array;
  track_lanes : bool;
  mutable ncycles : int;
  mutable counting : bool;
  mutable first : bool;  (* reset state must survive until the first input *)
}

let settle p v old toggles count =
  settle v old p.segs p.dst p.fa p.fb p.fc p.foff p.fidx p.latched toggles
    count

(* Resetting must not allocate, so that one state can serve a whole Monte
   Carlo run. Both buffers take the settled reset image: constants are
   never written, so the buffer a step overwrites must hold them too. *)
let reset s =
  let p = s.plan in
  Array.blit p.reset_state 0 s.cur 0 p.n;
  Array.blit p.reset_state 0 s.prv 0 p.n;
  Array.fill s.toggles 0 p.n 0;
  Array.fill s.lane_switched 0 lanes 0.0;
  s.ncycles <- 0;
  s.counting <- true;
  s.first <- true

let create ?(track_lanes = false) plan =
  let n = plan.n in
  let scratch = if track_lanes then n else 0 in
  let s =
    {
      plan;
      cur = Array.make n 0;
      prv = Array.make n 0;
      deltas = Array.make scratch 0;
      dcaps = Array.make scratch 0.0;
      toggles = Array.make n 0;
      lane_switched = Array.make lanes 0.0;
      track_lanes;
      ncycles = 0;
      counting = true;
      first = true;
    }
  in
  reset s;
  s

let step s inputs =
  let p = s.plan in
  assert (Array.length inputs = Array.length p.input_ids);
  (* fault-injection point: a gate evaluation raising mid-step *)
  Hlp_util.Faultinject.trip Hlp_util.Faultinject.Gate_eval;
  (* double buffer: [old] is last cycle's settled state, [nw] (the buffer
     from two cycles ago) is overwritten completely — every node is either
     latched, driven, settled, or a constant initialized at creation *)
  let old = s.cur and nw = s.prv in
  let dd = p.dff_dst in
  (* clock edge: latch data pins as they settled last cycle; the first
     edge re-captures the reset state *)
  if s.first then begin
    s.first <- false;
    for j = 0 to Array.length dd - 1 do
      let w = Array.unsafe_get dd j in
      Array.unsafe_set nw w (Array.unsafe_get old w)
    done
  end
  else begin
    let ds = p.dff_src in
    for j = 0 to Array.length dd - 1 do
      Array.unsafe_set nw (Array.unsafe_get dd j)
        (Array.unsafe_get old (Array.unsafe_get ds j))
    done
  end;
  let ins = p.input_ids in
  for k = 0 to Array.length ins - 1 do
    Array.unsafe_set nw (Array.unsafe_get ins k) (Array.unsafe_get inputs k)
  done;
  (* settle, counting the toggles of every written node when counted *)
  settle p nw old s.toggles s.counting;
  if s.counting && s.track_lanes then begin
    (* the lane sums replay Bitsim's chronological charge order, so the
       per-lane floats are bit-identical to the interpreter's: gather the
       step's non-zero deltas densely in accounting order, then sweep *)
    let m = gather_deltas old nw p.acct_order p.caps_acct s.deltas s.dcaps in
    if p.lanes_fast then accumulate_lanes s.lane_switched s.deltas s.dcaps m
    else
      (* pathological caps: the scatter walk over the same deltas *)
      for j = 0 to m - 1 do
        Bitsim.scan_lanes s.lane_switched (Array.unsafe_get s.dcaps j)
          (Array.unsafe_get s.deltas j)
      done
  end;
  s.cur <- nw;
  s.prv <- old;
  s.ncycles <- s.ncycles + 1;
  if Hlp_util.Telemetry.enabled () then begin
    Hlp_util.Telemetry.incr tel_steps;
    Hlp_util.Telemetry.add tel_lane_cycles lanes;
    Hlp_util.Telemetry.add tel_evals p.nslots;
    if s.counting then
      Hlp_util.Telemetry.add tel_popcounts (Array.length p.latched + p.nslots)
  end

let step_scalar s inputs =
  step s (Array.map (fun b -> if b then 1 else 0) inputs)

let value s w = s.cur.(w)
let value_bool s w = s.cur.(w) land 1 <> 0
let cycles s = s.ncycles
let toggle_counts s = s.toggles
let plan s = s.plan

let switched_capacitance s =
  (* same formula, same iteration order as Bitsim: derived from the exact
     integer toggle counts, independent of evaluation order *)
  let acc = ref 0.0 in
  Array.iteri
    (fun i t -> acc := !acc +. (s.plan.caps.(i) *. float_of_int t))
    s.toggles;
  !acc

let lane_switched_capacitance s =
  if not s.track_lanes then
    invalid_arg "Kernel.lane_switched_capacitance: created without ~track_lanes";
  Array.copy s.lane_switched

let set_counting s b = s.counting <- b

let reset_counters s =
  Array.fill s.toggles 0 (Array.length s.toggles) 0;
  Array.fill s.lane_switched 0 lanes 0.0;
  s.ncycles <- 0

let output_words s =
  let outs = s.plan.net.Netlist.outputs in
  let res = Array.make lanes 0 in
  Array.iteri
    (fun k (_, w) ->
      let v = s.cur.(w) in
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

(* --- four Monte Carlo units per pass ---

   A Monte Carlo unit is a counted, untracked run from the reset state,
   and units do not depend on each other, so [Wide] settles four of them
   in one pass of the schedule: node [i]'s words for units 0..3 sit at
   [4i .. 4i+3] of ordinary int arrays, one 256-bit register in the C
   settle. Latching, driving and the telemetry mirror [step]; each unit's
   toggle counts are the ones a one-unit state would reach on that unit's
   words, so [switched_capacitance] (the same float sum in the same node
   order as the one-unit function) keeps the bits. *)
module Wide = struct
  type plan = t

  type t = {
    plan : plan;
    mutable cur : int array;
    mutable prv : int array;
    toggles : int array;
    mutable first : bool;
  }

  let width = 4
  let available = wide_available ()
  let plan w = w.plan

  let reset w =
    let p = w.plan in
    for i = 0 to p.n - 1 do
      let x = Array.unsafe_get p.reset_state i in
      for u = width * i to (width * i) + width - 1 do
        Array.unsafe_set w.cur u x;
        Array.unsafe_set w.prv u x
      done
    done;
    Array.fill w.toggles 0 (width * p.n) 0;
    w.first <- true

  let create plan =
    if not available then
      invalid_arg "Kernel.Wide.create: needs an x86-64 CPU with AVX2";
    let words () = Array.make (width * plan.n) 0 in
    let w = { plan; cur = words (); prv = words (); toggles = words ();
              first = true } in
    reset w;
    w

  let step w inputs =
    let p = w.plan in
    assert (Array.length inputs = width * Array.length p.input_ids);
    Hlp_util.Faultinject.trip Hlp_util.Faultinject.Gate_eval;
    let old = w.cur and nw = w.prv in
    let dd = p.dff_dst in
    (* the first edge re-captures the reset state, later ones latch the
       data pins as they settled last cycle *)
    let ds = if w.first then dd else p.dff_src in
    w.first <- false;
    for j = 0 to Array.length dd - 1 do
      let d = width * Array.unsafe_get dd j
      and src = width * Array.unsafe_get ds j in
      for u = 0 to width - 1 do
        Array.unsafe_set nw (d + u) (Array.unsafe_get old (src + u))
      done
    done;
    let ins = p.input_ids in
    for k = 0 to Array.length ins - 1 do
      let d = width * Array.unsafe_get ins k in
      for u = 0 to width - 1 do
        Array.unsafe_set nw (d + u) (Array.unsafe_get inputs ((width * k) + u))
      done
    done;
    settle_wide nw old p.segs p.dst p.fa p.fb p.fc p.foff p.fidx p.latched
      w.toggles;
    w.cur <- nw;
    w.prv <- old;
    if Hlp_util.Telemetry.enabled () then begin
      Hlp_util.Telemetry.add tel_steps width;
      Hlp_util.Telemetry.add tel_lane_cycles (width * lanes);
      Hlp_util.Telemetry.add tel_evals (width * p.nslots);
      Hlp_util.Telemetry.add tel_popcounts
        (width * (Array.length p.latched + p.nslots))
    end

  let value w ~unit i = w.cur.((width * i) + unit)

  let toggle_counts w ~unit =
    Array.init w.plan.n (fun i -> w.toggles.((width * i) + unit))

  let switched_capacitance w ~unit =
    let caps = w.plan.caps in
    let acc = ref 0.0 in
    for i = 0 to Array.length caps - 1 do
      acc := !acc +. (caps.(i) *. float_of_int w.toggles.((width * i) + unit))
    done;
    !acc
end

(* --- compile-time structure, for tests, stats, and the design docs --- *)

type stats = {
  nodes : int;
  slots : int;
  levels : int;
  segments : int;
  pool : int;  (* flat fanin pool length *)
  widest_level : int;  (* max slots in one level *)
}

let stats p =
  let widest = ref 0 in
  for l = 0 to p.nlevels - 1 do
    let glo = p.level_off.(l) and ghi = p.level_off.(l + 1) in
    if ghi > glo then begin
      let w = seg_hi p (ghi - 1) - seg_lo p glo + 1 in
      if w > !widest then widest := w
    end
  done;
  {
    nodes = p.n;
    slots = p.nslots;
    levels = p.nlevels;
    segments = nsegs p;
    pool = Array.length p.fidx;
    widest_level = !widest;
  }

let stats_string p =
  let st = stats p in
  Printf.sprintf
    "%d slots over %d levels (%d segments, pool %d, widest level %d) of %d nodes"
    st.slots st.levels st.segments st.pool st.widest_level st.nodes

let segment_summary p =
  Array.init (nsegs p) (fun g ->
      (opcode_name (seg_op p g), seg_hi p g - seg_lo p g + 1))
