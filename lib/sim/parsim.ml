open Hlp_logic

let tel_engine_fallbacks = Hlp_util.Telemetry.counter "parsim.engine_fallbacks"
let tel_replays = Hlp_util.Telemetry.counter "parsim.replays"
let tel_replay_cycles = Hlp_util.Telemetry.counter "parsim.replay_cycles"
let tel_chunks = Hlp_util.Telemetry.counter "parsim.chunks"
let tel_idle_chunks = Hlp_util.Telemetry.counter "parsim.idle_chunks"
let tel_mc_units = Hlp_util.Telemetry.counter "parsim.mc_units"
let tel_mc_passes = Hlp_util.Telemetry.counter "parsim.mc_passes"
let tel_mc_dropped = Hlp_util.Telemetry.counter "parsim.mc_units_dropped"
let tel_replay_time = Hlp_util.Telemetry.timer "parsim.replay"
let tel_mc_time = Hlp_util.Telemetry.timer "parsim.monte_carlo"

type replay = {
  out_words : int array;
  transition_caps : float array;
}

(* A replay polls its guard every 4,096 cycles (scalar) or 64 chunks of
   63 (the bit engines), so a deadline stops it partway through a long
   trace: one check against milliseconds of simulation. *)
let check guard = Hlp_util.Guard.check ~where:"parsim.replay" guard

(* --- scalar reference implementation: one Funcsim step per cycle --- *)

let replay_scalar ~guard net ~vector ~n =
  let sim = Funcsim.create net in
  let outs = net.Netlist.outputs in
  let out_words = Array.make n 0 in
  let gate_cum = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if i land 4095 = 0 then check guard;
    Funcsim.step sim (vector i);
    let v = ref 0 in
    Array.iteri
      (fun k (_, wire) -> if Funcsim.value sim wire then v := !v lor (1 lsl k))
      outs;
    out_words.(i) <- !v;
    gate_cum.(i) <- Funcsim.switched_capacitance sim
  done;
  let transition_caps =
    Array.init (max 0 (n - 1)) (fun i -> gate_cum.(i + 1) -. gate_cum.(i))
  in
  { out_words; transition_caps }

(* --- bit-parallel chunk: 63 consecutive cycles per two Bitsim steps ---

   A combinational circuit's settled state depends only on the current
   vector, so a serial trace can be transposed: lane j of a chunk starting
   at cycle [lo] first settles at vector lo+j (warm-up step, accounting
   off), then steps to vector lo+j+1 with per-lane accounting on. The
   per-lane switched capacitance of the counted step is exactly the
   capacitance the scalar simulator charges for the transition
   lo+j -> lo+j+1. *)

(* One chunk on an existing (combinational, track_lanes) simulator. The
   warm-up settle is a pure function of the warm-up vectors, so the
   simulator's prior state is irrelevant and one instance can be reused
   across chunks — the result is bit-identical to a freshly created one. *)
let replay_chunk_with sim ~vector ~n lo =
  let count = min Bitsim.lanes (n - lo) in
  Bitsim.set_counting sim false;
  (* vectors lo .. lo+63 once: lane j of the counted step is lane j+1 of
     the warm-up step, so the counted words are a lane shift of the warm-up
     words plus vector lo+63 entering at the top lane *)
  let vecs =
    Array.init (Bitsim.lanes + 1) (fun j -> vector (min (lo + j) (n - 1)))
  in
  let warm = Bitsim.pack_lanes (Array.sub vecs 0 Bitsim.lanes) in
  Bitsim.step sim warm;
  let outs = Array.sub (Bitsim.output_words sim) 0 count in
  let last = vecs.(Bitsim.lanes) in
  let next =
    Array.mapi
      (fun k w -> (w lsr 1) lor (if last.(k) then 1 lsl (Bitsim.lanes - 1) else 0))
      warm
  in
  Bitsim.reset_counters sim;
  Bitsim.set_counting sim true;
  Bitsim.step sim next;
  let lane_caps = Bitsim.lane_switched_capacitance sim in
  let ntrans = min count (n - 1 - lo) in
  (outs, Array.sub lane_caps 0 (max 0 ntrans))

(* --- compiled replay: the chunk protocol in one pass over the trace ---

   Chunk [c] covers cycles lo = 63c .. lo+62 as in [replay_chunk_with],
   but every vector is fetched once, in cycle order, and packed straight
   into two reused word buffers: lane j of [warm] is vector lo+j, and
   [next] is [warm] one lane down with vector lo+63 in lane 62. That
   64th vector is lane 0 of the next chunk's [warm], which is where it
   is taken from; vector 0 enters [next] as if it were chunk -1's 64th.
   Lanes past the trace repeat its last vector, the clamped
   [vector (min i (n-1))] of the chunk protocol.

   A chunk whose 64 vectors are all equal ([next] = [warm]) is idle, and
   its steps are skipped. Its counted step would settle the warm-up
   state again: every delta word zero, so every lane cap exactly +0.0,
   which the result already holds. Its outputs are that one vector's,
   which lane 62 of the kernel state holds settled: the last step run,
   the counted step of the last busy chunk, had the vector that starts
   this run of idle chunks in lane 62. An idle chunk 0 has no step
   before it, so it runs its warm-up step, which settles the vector in
   every lane. *)
let replay_compiled ~guard net ~vector ~n =
  let lanes = Kernel.lanes in
  let sim = Kernel.create ~track_lanes:true (Kernel.of_netlist net) in
  let nin = Array.length net.Netlist.inputs in
  let out_words = Array.make n 0 in
  let transition_caps = Array.make (n - 1) 0.0 in
  let warm = Array.make nin 0 and next = Array.make nin 0 in
  (* set lane [j] of [words] from vector [i] *)
  let pack words i j =
    let v = vector i and bit = 1 lsl j in
    for k = 0 to nin - 1 do
      if v.(k) then words.(k) <- words.(k) lor bit
    done
  in
  let rec same k = k = nin || (warm.(k) = next.(k) && same (k + 1)) in
  pack next 0 (lanes - 1);
  for c = 0 to ((n + lanes - 1) / lanes) - 1 do
    if c land 63 = 0 then check guard;
    let lo = c * lanes in
    let count = min lanes (n - lo) in
    for k = 0 to nin - 1 do
      warm.(k) <- next.(k) lsr (lanes - 1)
    done;
    for j = 1 to count - 1 do
      pack warm (lo + j) j
    done;
    for k = 0 to nin - 1 do
      (* lanes count .. 62 repeat lane count-1, the trace's last vector *)
      if count < lanes && (warm.(k) lsr (count - 1)) land 1 = 1 then
        warm.(k) <- warm.(k) lor (-1 lsl count);
      next.(k) <- warm.(k) lsr 1
    done;
    if lo + lanes < n then pack next (lo + lanes) (lanes - 1)
    else
      for k = 0 to nin - 1 do
        next.(k) <- next.(k) lor (warm.(k) land (1 lsl (lanes - 1)))
      done;
    let idle = same 0 in
    if idle then Hlp_util.Telemetry.incr tel_idle_chunks;
    if c = 0 || not idle then begin
      Kernel.set_counting sim false;
      Kernel.step sim warm
    end;
    (* the lane transposition stays in [Kernel], one call per chunk that
       transposes only the lanes whose vector differs from the lane
       below: a [Kernel.value] call per output and lane, across the
       module boundary, made uniform traces 8-16% slower *)
    if idle then
      Array.fill out_words lo count (Kernel.output_lane sim (lanes - 1))
    else begin
      Kernel.output_lanes sim out_words lo count;
      Kernel.reset_counters sim;
      Kernel.set_counting sim true;
      Kernel.step sim next;
      Array.blit
        (Kernel.lane_switched_capacitance sim)
        0 transition_caps lo
        (min count (n - 1 - lo))
    end
  done;
  { out_words; transition_caps }

let replay ?(guard = Hlp_util.Guard.unlimited) ~engine net ~vector ~n =
  if n < 1 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Parsim.replay: n"
         "need at least one cycle");
  let nin = Array.length net.Netlist.inputs in
  (* a wrong-length vector is the caller's error on every engine, not an
     engine failure to degrade past *)
  let vector i =
    let v = vector i in
    if Array.length v <> nin then
      raise
        (Hlp_util.Err.invalid_input ~what:"Parsim.replay: vector"
           (Printf.sprintf "cycle %d: %d inputs for a netlist of %d" i
              (Array.length v) nin));
    v
  in
  Hlp_util.Telemetry.incr tel_replays;
  Hlp_util.Telemetry.add tel_replay_cycles n;
  Hlp_util.Telemetry.time tel_replay_time @@ fun () ->
  Hlp_util.Trace.span
    ~args:(fun () ->
      [ ("engine", Hlp_util.Json.Str (Engine.to_string engine));
        ("cycles", Hlp_util.Json.Int n) ])
    "parsim.replay"
  @@ fun () ->
  match (engine : Engine.t) with
  | Engine.Scalar -> replay_scalar ~guard net ~vector ~n
  | Engine.Bitparallel | Engine.Compiled -> (
      if Netlist.num_dffs net > 0 then
        invalid_arg
          "Parsim.replay: bit-parallel trace replay requires a combinational \
           netlist (sequential state cannot be chunked)";
      let nchunks = (n + Bitsim.lanes - 1) / Bitsim.lanes in
      Hlp_util.Telemetry.add tel_chunks nchunks;
      match engine with
      | Engine.Compiled -> replay_compiled ~guard net ~vector ~n
      | _ ->
          (* one simulator for every chunk: the warm-up settle erases
             prior state *)
          let sim = Bitsim.create ~track_lanes:true net in
          let chunks =
            Array.init nchunks (fun c ->
                if c land 63 = 0 then check guard;
                replay_chunk_with sim ~vector ~n (c * Bitsim.lanes))
          in
          let out_words = Array.concat (Array.to_list (Array.map fst chunks)) in
          let transition_caps =
            Array.concat (Array.to_list (Array.map snd chunks))
          in
          assert (Array.length out_words = n);
          assert (Array.length transition_caps = n - 1);
          { out_words; transition_caps })

(* --- engine degradation chain --- *)

let degradation_chain = function
  | Engine.Compiled -> [ Engine.Compiled; Engine.Bitparallel; Engine.Scalar ]
  | Engine.Bitparallel -> [ Engine.Bitparallel; Engine.Scalar ]
  | Engine.Scalar -> [ Engine.Scalar ]

(* Guard trips and input errors must propagate: degrading an estimate past
   its deadline (or past bad input) would return a wrong answer late
   instead of a typed error on time. Everything else — injected faults,
   a raising Monte Carlo unit or pass, engine-capability mismatches —
   degrades to the next engine. *)
let propagates = function
  | Hlp_util.Err.Error
      (Hlp_util.Err.Deadline_exceeded _ | Hlp_util.Err.Cancelled _
      | Hlp_util.Err.Invalid_input _) ->
      true
  | _ -> false

type 'a degraded = { value : 'a; engine_used : Engine.t; fallbacks : int }

let with_degradation ~what ~guard ~engine f =
  Hlp_util.Err.protect @@ fun () ->
  let rec go fallbacks = function
    | [] -> assert false
    | e :: rest -> (
        Hlp_util.Guard.check ~where:what guard;
        match
          (* one span per engine attempt: a degraded run shows the chain of
             attempts side by side, each hop marked by a fallback instant *)
          Hlp_util.Trace.span
            ~args:(fun () ->
              [ ("what", Hlp_util.Json.Str what);
                ("engine", Hlp_util.Json.Str (Engine.to_string e));
                ("fallbacks", Hlp_util.Json.Int fallbacks) ])
            "parsim.engine_attempt"
            (fun () -> f e)
        with
        | v -> { value = v; engine_used = e; fallbacks }
        | exception exn ->
            if propagates exn then raise exn
            else if rest <> [] then begin
              Hlp_util.Telemetry.incr tel_engine_fallbacks;
              Hlp_util.Trace.instant
                ~args:(fun () ->
                  [ ("from", Hlp_util.Json.Str (Engine.to_string e));
                    ("to",
                     Hlp_util.Json.Str (Engine.to_string (List.hd rest)));
                    ("why", Hlp_util.Json.Str (Printexc.to_string exn)) ])
                "parsim.engine_fallback";
              go (fallbacks + 1) rest
            end
            else begin
              match exn with
              | Hlp_util.Err.Error _ -> raise exn
              | _ ->
                  (* the last engine failed with a raw exception: surface it
                     as a typed whole-pipeline worker failure *)
                  raise
                    (Hlp_util.Err.Error
                       (Hlp_util.Err.Worker_failure
                          { worker = "engine chain";
                            attempts = fallbacks + 1;
                            why = what ^ ": " ^ Printexc.to_string exn }))
            end)
  in
  go 0 (degradation_chain engine)

let replay_guarded ?(guard = Hlp_util.Guard.unlimited) ~engine net ~vector ~n =
  if n < 1 then
    Error
      (Hlp_util.Err.Invalid_input
         { what = "Parsim.replay: n"; why = "need at least one cycle" })
  else
    with_degradation ~what:"parsim.replay" ~guard ~engine (fun e ->
        replay ~guard ~engine:e net ~vector ~n)

(* --- Monte Carlo under uniform inputs --- *)

type mc = {
  mean : float;
  unit_means : float array;
  cycles : int;
}

(* Each unit is an independent 63-lane batch whose PRNG stream depends only
   on (seed, unit index), so a unit's mean is the same whichever run or
   engine computed it. *)
let unit_rng ~seed u =
  Hlp_util.Prng.create (seed + ((u + 1) * 0x2545F4914F6CDD1D))

let mc_unit net ~caps ~batch ~seed u =
  let rng = unit_rng ~seed u in
  let words = Array.make (Array.length net.Netlist.inputs) 0 in
  let sim = Bitsim.create ~caps net in
  for _ = 1 to batch do
    Hlp_util.Prng.fill_words rng words ~pos:0 ~stride:1
      ~count:(Array.length words);
    Bitsim.step sim words
  done;
  Bitsim.switched_capacitance sim /. float_of_int (batch * Bitsim.lanes)

(* The compiled twin of [mc_unit]: identical PRNG stream, identical word
   sequence, and (by the kernel's accounting contract) identical integer
   toggle counts, so the returned mean has the same float bits. The unit
   runs on a caller-owned state and input buffer: [Kernel.reset] returns
   the state to exactly what [Kernel.create] leaves, whatever an earlier
   unit did to it, and [Kernel.step] only reads [words]. *)
let mc_unit_kernel sim words ~batch ~seed u =
  let rng = unit_rng ~seed u in
  Kernel.reset sim;
  for _ = 1 to batch do
    Hlp_util.Prng.fill_words rng words ~pos:0 ~stride:1
      ~count:(Array.length words);
    Kernel.step sim words
  done;
  Kernel.switched_capacitance sim /. float_of_int (batch * Kernel.lanes)

(* Units [u0 .. u0 + width - 1] in one wide pass: unit [u0 + j] draws its
   words from its own stream, in [mc_unit_kernel]'s order, into slot [j]
   of each input's group of [width], so every unit's mean carries the
   bits the one-unit path gives it. The wide state is reset first, so
   whatever an earlier pass or estimate left in it cannot reach the
   answer. *)
let mc_pass w words ~batch ~seed u0 =
  let width = Kernel.Wide.width in
  let nin = Array.length words / width in
  let rngs = Array.init width (fun j -> unit_rng ~seed (u0 + j)) in
  Kernel.Wide.reset w;
  for _ = 1 to batch do
    for j = 0 to width - 1 do
      Hlp_util.Prng.fill_words rngs.(j) words ~pos:j ~stride:width ~count:nin
    done;
    Kernel.Wide.step w words
  done;
  Array.init width (fun j ->
      Kernel.Wide.switched_capacitance w ~unit:j
      /. float_of_int (batch * Kernel.lanes))

(* One wide state and input buffer per domain, kept across estimates: the
   state's three node arrays go straight to the major heap, so one per
   estimate cost major collections. It is reused while the estimate's
   plan is physically the one it was built for and replaced otherwise;
   [mc_pass] resets it, so reuse cannot change an answer, and calls no
   caller code, so a run nested in an [on_unit] or [stop] callback on the
   same domain cannot interleave with a pass. *)
let wide_slot : (Kernel.Wide.t * int array) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let wide_state plan ~nin =
  match Domain.DLS.get wide_slot with
  | Some ((w, _) as ws) when Kernel.Wide.plan w == plan -> ws
  | _ ->
      let ws =
        (Kernel.Wide.create plan, Array.make (Kernel.Wide.width * nin) 0)
      in
      Domain.DLS.set wide_slot (Some ws);
      ws

(* The compiled units in passes of [Kernel.Wide.width]. [next u] is unit
   [u]'s mean: from the current pass when [u] lies in it, else from a new
   pass starting at [u]. Units are asked for in order, so a pass covers
   the next [width] units. A pass that raises leaves the run. [ahead u]
   counts the units the current pass computed past [u]. *)
let wide_units pass =
  (* units [lo, lo + width) belong to the current pass, [means] holds them *)
  let lo = ref 0 and means = ref [||] in
  let next u =
    if u < !lo || u >= !lo + Array.length !means then begin
      means :=
        Hlp_util.Trace.span
          ~args:(fun () -> [ ("first_unit", Hlp_util.Json.Int u) ])
          "parsim.pass"
          (fun () -> pass u);
      lo := u;
      Hlp_util.Telemetry.incr tel_mc_passes
    end;
    !means.(u - !lo)
  in
  let ahead u = !lo + Array.length !means - 1 - u in
  (next, ahead)

let monte_carlo_units ?resume_means ?on_unit ~engine net ~batch ~seed ~stop =
  Hlp_util.Telemetry.time tel_mc_time @@ fun () ->
  let next, ahead =
    match (engine : Engine.t) with
    | Engine.Compiled ->
        let plan = Kernel.of_netlist net in
        let nin = Array.length net.Netlist.inputs in
        if Kernel.Wide.available then
          let w, words = wide_state plan ~nin in
          wide_units (mc_pass w words ~batch ~seed)
        else
          (* one state for every unit; arrays this size go straight to
             the major heap, so one per run *)
          let sim = Kernel.create plan and words = Array.make nin 0 in
          (mc_unit_kernel sim words ~batch ~seed, fun _ -> 0)
    | _ ->
        let caps = Netlist.node_capacitance net in
        (mc_unit net ~caps ~batch ~seed, fun _ -> 0)
  in
  let result means cycles =
    { mean = Hlp_util.Stats.mean means; unit_means = means; cycles }
  in
  let rec go means =
    let u = Array.length means in
    let m = next u in
    Hlp_util.Telemetry.incr tel_mc_units;
    Option.iter (fun f -> f u m) on_unit;
    let means = Array.append means [| m |] in
    let cycles = (u + 1) * batch * Bitsim.lanes in
    if stop ~means ~cycles then begin
      (* the rest of the pass is speculative work past the stop *)
      Hlp_util.Telemetry.add tel_mc_dropped (ahead u);
      result means cycles
    end
    else go means
  in
  let means0 = Option.value resume_means ~default:[||] in
  let cycles0 = Array.length means0 * batch * Bitsim.lanes in
  (* entry stop-check: the previous run may have crashed after the stop
     rule fired but before its final snapshot landed *)
  if Array.length means0 > 0 && stop ~means:means0 ~cycles:cycles0 then
    result means0 cycles0
  else go means0
