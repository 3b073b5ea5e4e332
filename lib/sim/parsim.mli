(** Trace replay and Monte Carlo units over the simulation engines.

    [Parsim] drives {!Funcsim}, {!Bitsim} and the {!Kernel} over serial
    input traces and over independent Monte Carlo units, and walks the
    engine degradation chain when an engine fails. The determinism
    contract, relied on by every consumer: {e results depend only on the
    inputs and unit indices}. A Monte Carlo unit's PRNG stream is derived
    from the seed and the unit index, so [Bitparallel] and [Compiled] units
    carry the same bits and a resumed run equals a crash-free one.

    Faults are {e contained}, not propagated: a Monte Carlo unit whose
    computation raises is retried with bounded exponential backoff
    ([max_retries] times, 1 ms base). Because units are deterministic per
    index, a retry that succeeds yields exactly the value a clean run
    would have — containment does not weaken the determinism contract.
    Units that keep failing surface as the typed error
    [Hlp_util.Err.Error (Worker_failure _)]. Failure, retry, and
    degradation counts are visible in the ["parsim.worker_failures"],
    ["parsim.shard_retries"], and ["parsim.engine_fallbacks"] telemetry
    counters. *)

(** {1 Serial-trace replay} *)

type replay = {
  out_words : int array;
      (** per cycle: settled primary outputs, output index [k] at bit [k] *)
  transition_caps : float array;
      (** per transition [i -> i+1] (length [n-1]): capacitance switched *)
}

val replay :
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  vector:(int -> bool array) ->
  n:int ->
  replay
(** Simulate the [n]-cycle input trace [vector 0 .. vector (n-1)] and
    return per-cycle outputs plus per-transition switched capacitance (the
    quantities the sampling cosimulator consumes).

    [Scalar] runs one {!Funcsim} step per cycle. [Bitparallel] transposes
    the trace into chunks of 63 consecutive cycles, two {!Bitsim} steps per
    chunk (one uncounted warm-up settle, one counted transition), which is
    exact for combinational netlists because the settled state depends only
    on the current vector. [Compiled] runs the same chunk protocol through
    the {!Kernel} struct-of-arrays schedule (compiled once per fingerprint,
    one state reused across chunks) and is bit-identical to [Bitparallel]
    on every output word and per-transition float. Bit-parallel engines
    raise [Invalid_argument] on netlists with flip-flops (sequential state
    cannot be chunked); [n < 1] raises the typed [Invalid_input]. Toggle
    counts are integer-exact across engines; the per-transition floats can
    differ from [Scalar] only by summation-order round-off. *)

(** {1 Engine degradation} *)

val degradation_chain : Engine.t -> Engine.t list
(** The fallback order {!with_degradation} walks, starting at the given
    engine: [Compiled -> Bitparallel -> Scalar], [Bitparallel -> Scalar],
    [Scalar] alone. Exposed for tests and capacity planning. *)

type 'a degraded = {
  value : 'a;
  engine_used : Engine.t;  (** the first engine in the chain that succeeded *)
  fallbacks : int;  (** degradation hops taken (0 = requested engine ran) *)
}

val with_degradation :
  what:string ->
  guard:Hlp_util.Guard.t ->
  engine:Engine.t ->
  (Engine.t -> 'a) ->
  ('a degraded, Hlp_util.Err.t) result
(** Run an engine-parameterized computation down the degradation chain
    (see {!replay_guarded} for the policy); the building block behind
    {!replay_guarded} and {!Hlp_power.Probprop}'s Monte Carlo fallback. *)

val replay_guarded :
  ?guard:Hlp_util.Guard.t ->
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  vector:(int -> bool array) ->
  n:int ->
  (replay degraded, Hlp_util.Err.t) result
(** {!replay} behind the degradation chain
    [Compiled -> Bitparallel -> Scalar] (starting at [engine]): if an
    engine fails — an injected fault or an engine-capability mismatch
    such as a sequential netlist on a bit engine — the next, more
    conservative engine is tried, with each hop counted in
    ["parsim.engine_fallbacks"]. [Compiled] and [Bitparallel] are
    bit-identical, and [Scalar] differs only by summation round-off, so
    degradation never changes the answer beyond float noise. Guard trips
    ([Deadline_exceeded]/[Cancelled]) and [Invalid_input] propagate
    immediately — degrading past a deadline would return a late answer
    instead of a typed error. When the whole chain fails the result is
    the last typed error (a raw last exception is wrapped as
    [Worker_failure {shard = -1; _}]). *)

(** {1 Monte Carlo batches} *)

type mc = {
  mean : float;  (** mean switched capacitance per cycle over all units *)
  unit_means : float array;  (** per-unit batch means, in unit order *)
  cycles : int;  (** total simulated cycles (units x batch x 63) *)
}

val monte_carlo_units :
  ?max_retries:int ->
  ?resume_means:float array ->
  ?on_unit:(int -> float -> unit) ->
  engine:Engine.t ->
  Hlp_logic.Netlist.t ->
  batch:int ->
  seed:int ->
  stop:(means:float array -> cycles:int -> bool) ->
  mc
(** Evaluate independent Monte Carlo {e units}, one at a time and in
    unit order — each a fresh 63-lane {!Bitsim} run of [batch] steps under
    uniform random inputs from a PRNG stream determined by
    [(seed, unit index)] — until [stop] says so. [stop] is consulted after
    every unit. Under [Compiled] each unit replays a fresh {!Kernel} state
    of the once-compiled plan with the identical PRNG stream, so unit
    means (and therefore checkpoints) carry the same bits as
    [Bitparallel].

    A raising unit (including the ["domain-kill"] fault point, tripped as
    each attempt picks its unit up) is retried up to [max_retries]
    (default 2) times with exponential backoff; a unit still failing
    afterwards raises [Hlp_util.Err.Error (Worker_failure {shard; _})]
    with [shard] the unit index. A negative [max_retries] raises the typed
    [Invalid_input].

    Checkpoint hooks: [resume_means] seeds the run with per-unit means a
    journal recovered, with an entry stop-check covering a crash after the
    stop fired but before the final snapshot. [on_unit] is called with
    [(unit index, unit mean)] for every {e freshly computed} unit, in unit
    order — the journaling hook; resumed units are not re-reported.
    Because a unit's mean depends only on [(seed, unit index)], a resumed
    run returns the byte-identical [mc] a crash-free run would have. *)
