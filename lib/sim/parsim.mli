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
    on the current vector. Chunk [c] reads vectors [63c .. 63c+63], the
    last of which starts the next chunk, and lanes past the trace repeat
    vector [n-1]. [Compiled] runs the same chunk protocol through the
    {!Kernel} struct-of-arrays schedule (compiled once per fingerprint,
    one state reused across chunks) and is bit-identical to [Bitparallel]
    on every output word and per-transition float.

    {b Vector calls.} [Scalar] and [Compiled] call [vector] once per
    cycle, in cycle order; [Bitparallel] calls it 64 times per chunk, so
    it asks for each chunk's first vector twice and for [n-1] again in
    the lanes past the trace.

    {b Idle chunks.} [Compiled] skips both steps of a chunk whose 64
    vectors are all equal, and counts it in ["parsim.idle_chunks"]
    (["parsim.chunks"] counts every chunk). The skip is exact: the
    counted step would settle the warm-up state again, so every delta
    word is zero and every lane charge stays [+0.0]; and the chunk's
    outputs are its one vector's, which lane 62 of the kernel state
    already holds settled, because the last step run (the counted step
    of the last busy chunk) put that vector there. An idle first chunk
    runs its warm-up step alone. On traces that hold their inputs most
    cycles (a 1% change rate) about half the chunks are idle. Uniform
    random vectors all but never make one, except a last chunk of one
    cycle ([n mod 63 = 1]), whose lanes all repeat it.

    {b Errors.} Bit-parallel engines raise [Invalid_argument] on netlists
    with flip-flops (sequential state cannot be chunked). [n < 1], and a
    vector whose length is not the netlist's input count, raise the
    typed [Invalid_input] on every engine, the latter naming the first
    such cycle ("cycle 70: ..."). Toggle counts are integer-exact across
    engines; the per-transition floats can differ from [Scalar] only by
    summation-order round-off. *)

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
    ([Deadline_exceeded]/[Cancelled]) and [Invalid_input], such as a
    wrong-length vector, are returned at once with no fallback —
    degrading past a deadline would return a late answer instead of a
    typed error, and no engine can replay bad input. When the whole
    chain fails the result is the last typed error (a raw last exception
    is wrapped as [Worker_failure {shard = -1; _}]). *)

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
(** Evaluate independent Monte Carlo {e units} in unit order — each a
    fresh 63-lane run of [batch] steps under uniform random inputs from a
    PRNG stream determined by [(seed, unit index)] — until [stop] says so.
    [stop] is consulted after every unit, with the means of the units so
    far. [Bitparallel] runs each unit on a fresh {!Bitsim}.

    {b Four units per pass.} [Compiled] runs units [u .. u+3] in one pass
    of a {!Kernel.Wide} state when the CPU has AVX2 ({!Kernel.Wide.available};
    no option chooses), each unit with its own PRNG stream drawn in the
    one-unit order, so every unit mean carries the bits a one-unit
    {!Kernel} run (and [Bitparallel]) gives it. The run then takes the
    pass's units one at a time — [on_unit], then [stop] — and drops the
    units of the pass past the one where [stop] fired. So the returned
    means, [cycles], the [on_unit] sequence and every checkpoint equal a
    one-unit run's at every stopping point; at most three units per run
    are computed and dropped (["parsim.mc_units_dropped"], against
    ["parsim.mc_units"] kept and ["parsim.mc_passes"] computed). A resumed
    run starts its first pass at the first missing unit. Without AVX2,
    [Compiled] runs one unit at a time on one {!Kernel} state. Each domain
    keeps one wide state, reused across runs of the same cached plan and
    reset at the start of every pass, so no earlier run reaches an answer.

    A raising unit (including the ["domain-kill"] fault point, tripped as
    each attempt picks its unit up) is retried up to [max_retries]
    (default 2) times with exponential backoff; a unit still failing
    afterwards raises [Hlp_util.Err.Error (Worker_failure {shard; _})]
    with [shard] the unit index. A pass that raises (the ["domain-kill"]
    point also trips as a pass starts, and ["gate-eval"] once per wide
    step) is abandoned, counted in ["parsim.worker_failures"], and its
    units run one at a time under that containment, so retries and
    [shard] still name a unit. A negative [max_retries] raises the typed
    [Invalid_input].

    {b Deadline granularity.} A guard checked inside [stop] is seen at
    every unit's stop evaluation, but a pass computes four units before
    the first of them is evaluated: a run can overshoot a deadline by up
    to four units' work under [Compiled] with AVX2, against one unit
    otherwise.

    Checkpoint hooks: [resume_means] seeds the run with per-unit means a
    journal recovered, with an entry stop-check covering a crash after the
    stop fired but before the final snapshot. [on_unit] is called with
    [(unit index, unit mean)] for every {e freshly computed} unit, in unit
    order — the journaling hook; resumed units are not re-reported.
    Because a unit's mean depends only on [(seed, unit index)], a resumed
    run returns the byte-identical [mc] a crash-free run would have. *)
