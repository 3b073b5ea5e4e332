open Hlp_logic

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let tel_maps = Hlp_util.Telemetry.counter "parsim.maps"
let tel_shards = Hlp_util.Telemetry.counter "parsim.shards"
(* one observation per worker domain per parallel map: the number of shards
   that worker pulled. With perfect load balance every observation of a map
   is ~n/jobs; stragglers show up as outliers. *)
let tel_domain_shards = Hlp_util.Telemetry.series "parsim.domain_shards"
let tel_jobs_clamped = Hlp_util.Telemetry.counter "parsim.jobs_clamped"
let tel_worker_failures = Hlp_util.Telemetry.counter "parsim.worker_failures"
let tel_shard_retries = Hlp_util.Telemetry.counter "parsim.shard_retries"
let tel_engine_fallbacks = Hlp_util.Telemetry.counter "parsim.engine_fallbacks"
let tel_replays = Hlp_util.Telemetry.counter "parsim.replays"
let tel_replay_cycles = Hlp_util.Telemetry.counter "parsim.replay_cycles"
let tel_chunks = Hlp_util.Telemetry.counter "parsim.chunks"
let tel_mc_units = Hlp_util.Telemetry.counter "parsim.mc_units"
let tel_replay_time = Hlp_util.Telemetry.timer "parsim.replay"
let tel_mc_time = Hlp_util.Telemetry.timer "parsim.monte_carlo"

(* An explicit worker count is clamped to both the shard count and the
   recommended domain count: domains beyond either would sit idle (or
   oversubscribe the cores), and the clamp is visible in telemetry instead
   of silently spawning them. *)
let effective_jobs ?jobs n =
  let cap = min (max 1 n) (default_jobs ()) in
  match jobs with
  | None -> cap
  | Some j ->
      let j = max 1 j in
      if j > cap then begin
        Hlp_util.Telemetry.incr tel_jobs_clamped;
        cap
      end
      else j

let backoff_base_s = 0.001

let map ?jobs ?(max_retries = 2) n f =
  if n < 0 then
    raise (Hlp_util.Err.invalid_input ~what:"Parsim.map: n" "must be non-negative");
  if max_retries < 0 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Parsim.map: max_retries"
         "must be non-negative");
  let jobs = effective_jobs ?jobs n in
  if n = 0 then [||]
  else begin
    Hlp_util.Telemetry.incr tel_maps;
    Hlp_util.Telemetry.add tel_shards n;
    let results = Array.make n None in
    let failed = Array.make n None in  (* last attempt's exception, per shard *)
    (* One round computes the given shard subset, work-stealing over it.
       Each shard writes only its own slot, so the result is
       position-determined and independent of the worker count and of
       scheduling. A raising shard is contained: its exception is recorded,
       the worker moves on, and every other shard still completes. *)
    let round ~attempt indices =
      let k = Array.length indices in
      let next = Atomic.make 0 in
      let worker () =
        let mine = ref 0 in
        let rec go () =
          let j = Atomic.fetch_and_add next 1 in
          if j < k then begin
            let i = indices.(j) in
            (* span per shard attempt: in the merged trace, each worker
               domain's track shows exactly which shards it pulled, and a
               retried shard appears again with attempt > 1 *)
            (match
               Hlp_util.Trace.span
                 ~args:(fun () ->
                   [ ("shard", Hlp_util.Json.Int i);
                     ("attempt", Hlp_util.Json.Int attempt) ])
                 "parsim.shard"
                 (fun () ->
                   (* fault-injection point: this worker dying at pickup *)
                   Hlp_util.Faultinject.trip Hlp_util.Faultinject.Domain_kill;
                   f i)
             with
            | v ->
                results.(i) <- Some v;
                failed.(i) <- None;
                Stdlib.incr mine
            | exception e ->
                Hlp_util.Telemetry.incr tel_worker_failures;
                Hlp_util.Trace.instant
                  ~args:(fun () ->
                    [ ("shard", Hlp_util.Json.Int i);
                      ("why", Hlp_util.Json.Str (Printexc.to_string e)) ])
                  "parsim.shard_failed";
                failed.(i) <- Some e);
            go ()
          end
        in
        go ();
        if Hlp_util.Telemetry.enabled () then
          Hlp_util.Telemetry.observe tel_domain_shards (float_of_int !mine)
      in
      let domains =
        Array.init (min jobs k - 1) (fun _ -> Domain.spawn worker)
      in
      worker ();
      Array.iter Domain.join domains
    in
    round ~attempt:1 (Array.init n Fun.id);
    (* failed shards are retried on fresh domains with bounded exponential
       backoff; [f] is deterministic per index, so a retried shard that
       succeeds yields exactly the value the clean run would have *)
    let rec retry attempt =
      let pending =
        Array.of_seq
          (Seq.filter (fun i -> failed.(i) <> None) (Seq.init n Fun.id))
      in
      if Array.length pending > 0 && attempt <= max_retries then begin
        Hlp_util.Telemetry.add tel_shard_retries (Array.length pending);
        Hlp_util.Trace.span
          ~args:(fun () ->
            [ ("pending", Hlp_util.Json.Int (Array.length pending));
              ("attempt", Hlp_util.Json.Int attempt) ])
          "parsim.retry_backoff"
          (fun () ->
            Unix.sleepf (backoff_base_s *. float_of_int (1 lsl (attempt - 1))));
        round ~attempt:(attempt + 1) pending;
        retry (attempt + 1)
      end
    in
    retry 1;
    Array.iteri
      (fun i e ->
        match e with
        | Some e ->
            raise
              (Hlp_util.Err.Error
                 (Hlp_util.Err.Worker_failure
                    { shard = i;
                      attempts = max_retries + 1;
                      why = Printexc.to_string e }))
        | None -> ())
      failed;
    Array.map (function Some v -> v | None -> assert false) results
  end

type replay = {
  out_words : int array;
  transition_caps : float array;
}

(* --- scalar reference implementation: one Funcsim step per cycle --- *)

let replay_scalar net ~vector ~n =
  let sim = Funcsim.create net in
  let outs = net.Netlist.outputs in
  let out_words = Array.make n 0 in
  let gate_cum = Array.make n 0.0 in
  for i = 0 to n - 1 do
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

let replay_chunk net ~caps ~vector ~n lo =
  replay_chunk_with (Bitsim.create ~caps ~track_lanes:true net) ~vector ~n lo

(* Same chunk transposition through the compiled kernel. The accounting
   contract ({!Kernel}) makes the per-lane floats bit-identical to
   [replay_chunk_with], so the two bodies must stay in lockstep. *)
let kernel_chunk_with sim ~vector ~n lo =
  let count = min Kernel.lanes (n - lo) in
  Kernel.set_counting sim false;
  let vecs =
    Array.init (Kernel.lanes + 1) (fun j -> vector (min (lo + j) (n - 1)))
  in
  let warm = Bitsim.pack_lanes (Array.sub vecs 0 Kernel.lanes) in
  Kernel.step sim warm;
  let outs = Array.sub (Kernel.output_words sim) 0 count in
  let last = vecs.(Kernel.lanes) in
  let next =
    Array.mapi
      (fun k w -> (w lsr 1) lor (if last.(k) then 1 lsl (Kernel.lanes - 1) else 0))
      warm
  in
  Kernel.reset_counters sim;
  Kernel.set_counting sim true;
  Kernel.step sim next;
  let lane_caps = Kernel.lane_switched_capacitance sim in
  let ntrans = min count (n - 1 - lo) in
  (outs, Array.sub lane_caps 0 (max 0 ntrans))

let replay ?jobs ?max_retries ~engine net ~vector ~n =
  if n < 1 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Parsim.replay: n"
         "need at least one cycle");
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
  | Engine.Scalar -> replay_scalar net ~vector ~n
  | Engine.Bitparallel | Engine.Parallel | Engine.Compiled ->
      if Netlist.num_dffs net > 0 then
        invalid_arg
          "Parsim.replay: bit-parallel trace replay requires a combinational \
           netlist (sequential state cannot be chunked)";
      let nchunks = (n + Bitsim.lanes - 1) / Bitsim.lanes in
      Hlp_util.Telemetry.add tel_chunks nchunks;
      let chunks =
        match engine with
        | Engine.Compiled ->
            (* compile once (fingerprint-cached), reuse one kernel state
               across all chunks — the warm-up settle erases prior state *)
            let sim = Kernel.create ~track_lanes:true (Kernel.of_netlist net) in
            Array.init nchunks (fun c ->
                kernel_chunk_with sim ~vector ~n (c * Kernel.lanes))
        | _ ->
            let jobs =
              match engine with
              | Engine.Parallel -> (
                  match jobs with Some j -> max 1 j | None -> default_jobs ())
              | _ -> 1
            in
            (* one capacitance table, shared read-only by every chunk
               simulator *)
            let caps = Netlist.node_capacitance net in
            if jobs <= 1 then begin
              (* sequential: one simulator reused across all chunks (the
                 warm-up settle erases prior state), bit-identical to the
                 per-chunk-create parallel path *)
              let sim = Bitsim.create ~caps ~track_lanes:true net in
              Array.init nchunks (fun c ->
                  replay_chunk_with sim ~vector ~n (c * Bitsim.lanes))
            end
            else
              map ~jobs ?max_retries nchunks (fun c ->
                  replay_chunk net ~caps ~vector ~n (c * Bitsim.lanes))
      in
      let out_words = Array.concat (Array.to_list (Array.map fst chunks)) in
      let transition_caps = Array.concat (Array.to_list (Array.map snd chunks)) in
      assert (Array.length out_words = n);
      assert (Array.length transition_caps = n - 1);
      { out_words; transition_caps }

(* --- engine degradation chain --- *)

let degradation_chain = function
  | Engine.Compiled -> [ Engine.Compiled; Engine.Bitparallel; Engine.Scalar ]
  | Engine.Parallel -> [ Engine.Parallel; Engine.Bitparallel; Engine.Scalar ]
  | Engine.Bitparallel -> [ Engine.Bitparallel; Engine.Scalar ]
  | Engine.Scalar -> [ Engine.Scalar ]

(* Guard trips and input errors must propagate: degrading an estimate past
   its deadline (or past bad input) would return a wrong answer late
   instead of a typed error on time. Everything else — injected faults,
   worker failures that survived their retries, engine-capability
   mismatches — degrades to the next engine. *)
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
                          { shard = -1;
                            attempts = fallbacks + 1;
                            why = what ^ ": " ^ Printexc.to_string exn }))
            end)
  in
  go 0 (degradation_chain engine)

let replay_guarded ?jobs ?max_retries ?(guard = Hlp_util.Guard.unlimited) ~engine
    net ~vector ~n =
  if n < 1 then
    Error
      (Hlp_util.Err.Invalid_input
         { what = "Parsim.replay: n"; why = "need at least one cycle" })
  else
    with_degradation ~what:"parsim.replay" ~guard ~engine (fun e ->
        replay ?jobs ?max_retries ~engine:e net ~vector ~n)

(* --- Monte Carlo under uniform inputs --- *)

type mc = {
  mean : float;
  unit_means : float array;
  cycles : int;
}

(* Each unit is an independent 63-lane batch whose PRNG stream depends only
   on (seed, unit index) — never on the worker that ran it — which is what
   makes the parallel reduction deterministic in the number of domains. *)
let mc_unit net ~caps ~batch ~seed u =
  let rng = Hlp_util.Prng.create (seed + ((u + 1) * 0x2545F4914F6CDD1D)) in
  let nin = Array.length net.Netlist.inputs in
  let sim = Bitsim.create ~caps net in
  for _ = 1 to batch do
    let words = Array.make nin 0 in
    for k = 0 to nin - 1 do
      words.(k) <- Int64.to_int (Hlp_util.Prng.bits64 rng)
    done;
    Bitsim.step sim words
  done;
  Bitsim.switched_capacitance sim /. float_of_int (batch * Bitsim.lanes)

(* The compiled twin of [mc_unit]: identical PRNG stream, identical word
   sequence, and (by the kernel's accounting contract) identical integer
   toggle counts, so the returned mean has the same float bits. The unit
   runs on a caller-owned state and input buffer: [Kernel.reset] returns
   the state to exactly what [Kernel.create] leaves, whatever an earlier
   (or failed) unit did to it, and [Kernel.step] only reads [words]. *)
let mc_unit_kernel sim words ~batch ~seed u =
  let rng = Hlp_util.Prng.create (seed + ((u + 1) * 0x2545F4914F6CDD1D)) in
  Kernel.reset sim;
  for _ = 1 to batch do
    for k = 0 to Array.length words - 1 do
      words.(k) <- Int64.to_int (Hlp_util.Prng.bits64 rng)
    done;
    Kernel.step sim words
  done;
  Kernel.switched_capacitance sim /. float_of_int (batch * Kernel.lanes)

let monte_carlo_units ?jobs ?max_retries ?resume_means ?on_unit ~engine net
    ~batch ~seed ~stop =
  Hlp_util.Telemetry.time tel_mc_time @@ fun () ->
  (* fixed round size, independent of the worker count, so the stopping
     decisions (and therefore the estimate) do not depend on ~jobs *)
  let round = match (engine : Engine.t) with Engine.Parallel -> 8 | _ -> 1 in
  let jobs = match engine with Engine.Parallel -> jobs | _ -> Some 1 in
  let unit_of =
    match (engine : Engine.t) with
    | Engine.Compiled ->
        (* one state and one input buffer for the whole run: arrays this
           size go straight to the major heap, and the compiled path runs
           its units one at a time on this domain (jobs = 1) *)
        let sim = Kernel.create (Kernel.of_netlist net) in
        let words = Array.make (Array.length net.Netlist.inputs) 0 in
        fun u -> mc_unit_kernel sim words ~batch ~seed u
    | _ ->
        let caps = Netlist.node_capacitance net in
        fun u -> mc_unit net ~caps ~batch ~seed u
  in
  let rec go acc nunits =
    let fresh =
      Hlp_util.Trace.span
        ~args:(fun () ->
          [ ("units_done", Hlp_util.Json.Int nunits);
            ("round", Hlp_util.Json.Int round) ])
        "parsim.mc_round"
        (fun () ->
          map ?jobs ?max_retries round (fun r -> unit_of (nunits + r)))
    in
    Hlp_util.Telemetry.add tel_mc_units round;
    (match on_unit with
    | None -> ()
    | Some f -> Array.iteri (fun r m -> f (nunits + r) m) fresh);
    let acc = acc @ Array.to_list fresh in
    let nunits = nunits + round in
    let means = Array.of_list acc in
    let cycles = nunits * batch * Bitsim.lanes in
    if stop ~means ~cycles then
      { mean = Hlp_util.Stats.mean means; unit_means = means; cycles }
    else go acc nunits
  in
  let resumed =
    match resume_means with
    | None -> []
    | Some ms ->
        (* keep only whole rounds so stop-rule evaluation points line up
           with the unit-index boundaries a fresh run would have used —
           the price of a crash mid-round is re-running that round *)
        let k = Array.length ms / round * round in
        Array.to_list (Array.sub ms 0 k)
  in
  let nunits0 = List.length resumed in
  let means0 = Array.of_list resumed in
  let cycles0 = nunits0 * batch * Bitsim.lanes in
  (* entry stop-check: the previous run may have crashed after the stop
     rule fired but before its final snapshot landed *)
  if nunits0 > 0 && stop ~means:means0 ~cycles:cycles0 then
    { mean = Hlp_util.Stats.mean means0; unit_means = means0; cycles = cycles0 }
  else go resumed nunits0
