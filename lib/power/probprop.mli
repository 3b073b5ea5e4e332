(** Probabilistic power estimation for random logic (the paper's RT-level
    flow, step 4: glue/interface circuitry is estimated "by performing
    probabilistic power estimation [27]-[31]" instead of simulation, and
    low-level simulation is "sped up by the application of statistical
    sampling techniques [32]-[35]").

    Two engines:
    - propagation: push per-input signal probabilities and transition
      densities through the netlist gate by gate under the independence
      assumption (Najm's transition-density style) — zero simulation;
    - Monte Carlo: simulate in batches until the estimate's confidence
      interval is tight enough (Burch et al.), reporting how many cycles
      the stopping rule needed. *)

type node_stats = {
  prob : float array;  (** per node: probability of being 1 *)
  activity : float array;  (** per node: expected toggles per cycle *)
}

val propagate :
  ?input_prob:(int -> float) ->
  ?input_activity:(int -> float) ->
  Hlp_logic.Netlist.t ->
  node_stats
(** Closed-form propagation assuming spatial independence of gate inputs
    (the classic source of optimism on reconvergent logic, quantified in
    the tests). Defaults: inputs at probability 0.5, activity 0.5.
    Combinational netlists only. *)

val estimate_capacitance : Hlp_logic.Netlist.t -> node_stats -> float
(** Switched capacitance per cycle implied by the propagated activities. *)

val symbolic : ?node_limit:int -> Hlp_logic.Netlist.t -> node_stats
(** {e Exact} signal probabilities under uniform inputs: every node's
    global function is built as a BDD ({!Hlp_bdd.Bdd.of_netlist_all} under
    the first-use variable order) and evaluated with
    {!Hlp_bdd.Bdd.probability} — no independence assumption, so
    reconvergent fanout is handled exactly, which is precisely where
    {!propagate} is optimistic. Activity assumes temporally independent
    consecutive vectors: [2 p (1-p)] per node. A sequential netlist or a
    [node_limit] below 1 is [Invalid_input].

    This is the precise-but-explosive side of the paper's tradeoff:
    [node_limit] bounds the BDD manager, and a blowup raises the typed
    [Budget_exceeded {budget = "bdd.nodes"; limit; used = limit}] — the
    signal {!estimate_guarded} uses to degrade to Monte Carlo sampling.

    A build makes the same node creations for the same netlist every time
    and a manager never frees a node, so if an unbudgeted build needs N
    nodes, a build under L succeeds exactly when N <= L. {!symbolic_memo}
    keeps, per {!Hlp_logic.Netlist.fingerprint}, the strongest fact
    proved so far — "fits in N nodes, with these stats" or "needs more
    than L nodes" — and answers every attempt it decides as a fresh build
    would; other attempts build and record what they proved (an injected
    ["bdd.nodes(injected)"] trip proves nothing). So the result depends
    only on the netlist and [node_limit]. ["probprop.symbolic_runs"]
    counts attempts, ["probprop.symbolic_builds"] the ones that built.
    The returned arrays are shared by every caller: do not mutate them. *)

type symbolic_fact

val symbolic_memo : symbolic_fact Hlp_logic.Netcache.t
(** The process-wide memo behind {!symbolic} (["probprop.symbolic"],
    capacity 64). Evicting or clearing an entry costs a rebuild, never a
    different answer: the serve daemon trims it under memory pressure, and
    tests clear it to force builds. *)

type monte_carlo = {
  estimate : float;  (** mean switched capacitance per cycle *)
  half_interval : float;
      (** 95% Student-t confidence half-width over the batch means
          (df = batches - 1) *)
  cycles_used : int;
  batches : int;
  batch_means : float array;
      (** per-batch mean switched capacitance, in batch order — the full
          convergence trajectory (the provenance record keeps its tail) *)
}

(** {1 Crash-safe checkpointing}

    A checkpoint journals the Monte Carlo loop's exact state at batch
    (scalar engine) or unit (bit engines) boundaries into a
    {!Hlp_util.Journal}, so a SIGKILLed run resumed from the same journal
    produces the {e byte-identical} estimate — same [estimate] bits, same
    [batch_means], same [cycles_used] — an uninterrupted run would have.
    Floats travel as the hex of their IEEE-754 bits, never as decimal
    text; on the scalar engine the switched-capacitance accumulator and
    the PRNG state are transplanted bit-for-bit and the simulator is
    re-primed from the journaled last input vector (combinational
    netlists only — [Invalid_input] otherwise); on the bit engines each
    unit is a pure function of [(seed, unit index)], so only the finished
    unit means travel.

    The first record is a header binding the journal to the run
    parameters (seed, batch, precision, cycle budget, engine) and the
    circuit's {!Hlp_logic.Netlist.fingerprint}. On any mismatch — or a
    torn/corrupt body — the journal {e self-heals}: it is truncated and
    the run starts fresh (counted in ["probprop.ck_header_mismatches"]),
    so a batch campaign never wedges after a parameter change. Torn
    tails found on resume are counted in ["probprop.ck_torn_tails"],
    successful resumes in ["probprop.ck_resumes"]. *)

type checkpoint

val checkpoint :
  ?sync_every:int ->
  ?resume:bool ->
  ?on_batch:(int -> unit) ->
  string ->
  checkpoint
(** [checkpoint path] configures checkpointing into the journal at
    [path], one record per batch or unit. [sync_every] (default 16) is the
    group-commit cadence: one [fsync] per that many records, plus one at
    close, trading at most [sync_every] records of power-loss durability
    for the journaling overhead bench E36 measures (a SIGKILL loses nothing
    either way — appends reach the kernel immediately). [resume] replays
    an existing journal instead of truncating it. [on_batch] is called
    after every batch/unit boundary, {e after} the journal has been
    fsynced — the hook crash-recovery tests use to die at exact points.
    Raises [Invalid_input] on a non-positive [sync_every]. *)

val monte_carlo :
  ?batch:int ->
  ?relative_precision:float ->
  ?max_cycles:int ->
  ?seed:int ->
  ?engine:Hlp_sim.Engine.t ->
  ?max_retries:int ->
  ?checkpoint:checkpoint ->
  ?guard:Hlp_util.Guard.t ->
  Hlp_logic.Netlist.t ->
  monte_carlo
(** Simulate under uniform inputs in batches (default 30 cycles each, the
    normality minimum) until the 95% CI of the per-cycle capacitance is
    within [relative_precision] (default 5%) of the mean — the
    Burch-et-al. stopping criterion. The interval is a Student-t interval
    over the batch means ([Stats.confidence_interval], df = batches - 1):
    with as few as 3 batches the normal z = 1.96 interval under-covers
    (the true 95% multiplier at df = 2 is 4.303), so a z-based rule stops
    too early and reports intervals that miss the long-run mean well over
    5% of the time (see the empirical-coverage test in [test_power.ml]).

    When {!Hlp_util.Telemetry} is enabled, every stopping-rule evaluation
    appends the running mean and the t half-width to the
    ["probprop.running_mean"] / ["probprop.ci_half_width"] series — the
    full convergence trajectory of the run.

    [engine] (default [Scalar]) selects the simulation engine. [Scalar]
    reproduces the seed implementation bit-for-bit. [Bitparallel] simulates
    63 independent vector streams per word-wide {!Hlp_sim.Bitsim} step, so
    each batch covers [batch * 63] cycles, from per-batch PRNG streams;
    [Compiled] runs the same batches through the compiled kernel and
    returns the same bits. The bit engines draw different random streams
    than [Scalar], so their estimates agree statistically (within the
    confidence interval), not bit-exactly.

    [guard] is checked at every stopping-rule evaluation; a trip raises the
    typed [Deadline_exceeded] / [Cancelled]. [max_retries] bounds the
    retries of a failing batch on the bit engines (see
    {!Hlp_sim.Parsim.monte_carlo_units}). [batch < 2] raises the typed
    [Invalid_input]. *)

(** {1 Guarded estimation: the symbolic-vs-sampling degradation chain}

    The paper's central tradeoff (Section II-C): BDD-based symbolic
    estimation is exact but blows up unpredictably; Monte Carlo sampling
    is approximate but robust. [estimate_guarded] encodes it as a
    degradation chain — try exact symbolic propagation under a node
    budget, fall back to sampling on blowup, and degrade the sampling
    engine [Compiled -> Bitparallel -> Scalar] on worker faults — so no
    input, fault, or resource exhaustion produces an uncaught exception:
    the result is an estimate or a typed {!Hlp_util.Err.t}, always. *)

type estimator = Symbolic | Monte_carlo of monte_carlo

type provenance = {
  estimator_used : string;  (** ["symbolic"] or ["monte_carlo"] *)
  engine : string option;  (** sampling engine name, if sampled *)
  symbolic_fallback : bool;
  engine_fallbacks : int;
  seed : int;
  batches : int;  (** 0 for symbolic estimates *)
  cycles_used : int;
  half_interval : float option;
  convergence_tail : float array;
      (** the last (up to 8) batch means, chronological *)
  guard_deadline_trips : int;
      (** deltas of the process-wide telemetry counters over this estimate;
          meaningful only when [counters_live] *)
  guard_cancel_trips : int;
  worker_failures : int;
  shard_retries : int;
  faults_injected : (string * int) list;
      (** injection points that fired during this estimate, with counts
          (tracked independently of the telemetry switch) *)
  counters_live : bool;  (** telemetry was enabled, so deltas are real *)
  wall_time_s : float;  (** monotonic wall time of the whole estimate *)
}

val provenance_json : provenance -> Hlp_util.Json.t
(** The record as a JSON object — the CLI's [--run-report] payload. *)

type guarded = {
  capacitance : float;  (** estimated switched capacitance per cycle *)
  estimator : estimator;
  engine_used : Hlp_sim.Engine.t option;  (** sampling engine, if sampled *)
  symbolic_fallback : bool;
      (** the symbolic stage was attempted and tripped its node budget *)
  engine_fallbacks : int;  (** engine-degradation hops inside sampling *)
  provenance : provenance;
      (** how this number was produced: engine, fallback hops, guard trips,
          fault counters, seed, convergence tail, wall time *)
}

val default_node_limit : int
(** BDD node budget used when [node_limit] is omitted (200k nodes —
    comfortably above every module-sized circuit in the experiments,
    small enough to trip in milliseconds on a blowup). *)

val estimate_guarded :
  ?guard:Hlp_util.Guard.t ->
  ?node_limit:int ->
  ?batch:int ->
  ?relative_precision:float ->
  ?max_cycles:int ->
  ?seed:int ->
  ?engine:Hlp_sim.Engine.t ->
  ?max_retries:int ->
  ?try_symbolic:bool ->
  ?checkpoint:checkpoint ->
  Hlp_logic.Netlist.t ->
  (guarded, Hlp_util.Err.t) result
(** Estimate switched capacitance per cycle, degrading instead of
    crashing. Stage 1 runs {!symbolic} under [node_limit] (skipped for
    sequential netlists, or when [try_symbolic] is [false] — perfbench's
    batch body, its only user, passes its own
    {!Hlp_util.Supervisor.breaker}'s verdict there); a [Budget_exceeded]
    trip is counted in ["probprop.symbolic_fallbacks"] and degrades to
    stage 2, Monte Carlo sampling starting at [engine] (default
    [Bitparallel]) behind {!Hlp_sim.Parsim.with_degradation}.
    [checkpoint] makes the sampling stage resumable (an engine-degradation
    hop rewrites the journal header, so the journal self-heals rather
    than resuming across engines). Guard trips and invalid input
    surface as [Error]; no exception escapes except programming errors.
    The estimate depends only on the arguments, never on earlier calls. *)
