(** Sampling-based RT-level power cosimulation (Section II-C2).

    A power cosimulator rides along an RT-level simulation of a long input
    stream. Three estimators are reproduced:

    - {e census}: evaluate the macro-model equation on every cycle
      (accurate w.r.t. the macro-model, maximum overhead, and still biased
      w.r.t. gate level when the stream differs from the training set);
    - {e sampler}: evaluate only on randomly marked cycles, several
      independent samples of at least 30 units each (Hsieh et al. [46] —
      ~50x fewer evaluations, ~1% deviation from census);
    - {e adaptive}: additionally run the expensive gate-level simulator on
      a small subsample and correct the macro-model with a ratio (regression)
      estimator, removing the training bias (census ~30% error becomes
      ~5%). *)

type t
(** A prepared cosimulation: per-cycle macro-model evaluations are lazy;
    per-cycle gate-level powers are computed on demand and counted. *)

val of_arrays : macro_values:float array -> gate_values:float array -> t
(** Assemble a cosimulation from already-computed per-transition values —
    for replaying recorded data and for tests that need precise control
    over the value streams. Validates at assembly instead of letting bad
    data surface downstream as an index error or a silent NaN estimate:
    mismatched lengths, empty arrays, and non-finite (poisoned) values
    raise the typed [Hlp_util.Err.Error (Invalid_input _)]. *)

val of_arrays_checked :
  macro_values:float array ->
  gate_values:float array ->
  (t, Hlp_util.Err.t) result
(** {!of_arrays} with the validation failure as a [result]. *)

val prepare :
  ?engine:Hlp_sim.Engine.t ->
  Macromodel.model ->
  Macromodel.dut ->
  int array list ->
  t
(** [prepare model dut traces] sets up the cosimulation of the module under
    the given input streams (one per input word, equal lengths). The
    macro-model is evaluated cycle-by-cycle on the observed per-bit
    transitions (a bitwise-style cycle equation).

    [engine] (default [Scalar]) selects the gate-level simulation engine
    (see {!Hlp_sim.Engine}): [Bitparallel] replays the trace 63 cycles per
    word-wide step, and [Compiled] runs the same replay through the
    compiled kernel. Output words and toggle counts are identical across
    engines; per-transition capacitances (and hence {!adaptive} estimates)
    agree up to float round-off, and sampler / census estimates are
    bit-identical.

    Input validation is typed: no streams, fewer than two cycles, unequal
    stream lengths, or a stream count that does not match the DUT's input
    words raise [Hlp_util.Err.Error (Invalid_input _)], as do poisoned
    (non-finite) per-transition values detected at assembly. *)

val prepare_journaled :
  ?engine:Hlp_sim.Engine.t ->
  path:string ->
  Macromodel.model ->
  Macromodel.dut ->
  int array list ->
  t
(** {!prepare} behind a durable replay cache at [path] (a
    {!Hlp_util.Journal}). A complete cache whose header matches the
    circuit fingerprint, engine, and a digest of the input traces is
    loaded instead of re-simulating (counted in ["sampling.cache_hits"]);
    anything else — missing file, torn tail, parameter mismatch, a cache
    without its terminal done-marker because the writer was killed
    mid-write, or corrupt values — is treated as a miss: the streams are
    recomputed with {!prepare} and the cache rewritten (counted in
    ["sampling.cache_misses"]). Loaded values are revalidated through
    {!of_arrays_checked}, so a bad cache can cost time, never
    correctness. *)

val prepare_cached :
  ?engine:Hlp_sim.Engine.t ->
  Macromodel.model ->
  Macromodel.dut ->
  int array list ->
  t
(** {!prepare} behind a process-local {!Hlp_logic.Netcache} — the serve
    daemon's hot sampler cache. The key binds the circuit fingerprint,
    the engine, a digest of the input traces, {e and} the model's kind
    and exact coefficient bits, so a hit is always the stream {!prepare}
    would have produced. Hits/misses surface as
    ["sampling.mem.cache_hits"] / ["sampling.mem.cache_misses"]. *)

val clear_prepare_cache : unit -> unit
(** Drop every entry of the {!prepare_cached} cache (tests). *)

val cycles : t -> int

val gate_reference : t -> float
(** True mean switched capacitance per cycle from full gate-level
    simulation (the accuracy yardstick; not an estimator). *)

type estimate = {
  value : float;  (** estimated mean capacitance per cycle *)
  macro_evaluations : int;  (** macro-model equation evaluations used *)
  gate_cycles : int;  (** gate-level simulation cycles used *)
}

val census : t -> estimate

val sampler : ?num_samples:int -> ?sample_size:int -> seed:int -> t -> estimate
(** Simple random sampling: [num_samples] (default 5) independent samples
    of [sample_size] (default 40, >= 30 for normality as the paper
    requires) marked cycles; the estimate is the mean of sample means. On a
    10^4-cycle stream this is the paper's ~50x overhead reduction. *)

val adaptive : ?sample_size:int -> seed:int -> t -> estimate
(** Ratio-estimator correction: gate-level power is simulated on a small
    random sample (default 40 cycles); the estimate is
    [(mean gate / mean macro on the sample) * census macro mean]. *)
