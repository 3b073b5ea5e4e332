(** Process-wide telemetry: counters, timers, and observation series for
    the simulation engines and estimators.

    The registry is global and the switch is off by default, so
    instrumented hot paths cost one predictable branch when disabled (the
    simulators keep their own plain per-instance counters regardless; the
    telemetry layer only {e aggregates} them, at step or replay
    granularity, when enabled). Counters and timers are atomic and series
    appends are mutex-protected, so worker domains (the serve pool,
    {!Supervisor.run_jobs}) can report concurrently.

    Typical use:
    {[
      Telemetry.enable ();
      ... run a workload ...
      Telemetry.print_report ();            (* human-readable table *)
      print_string (Telemetry.to_json ());  (* machine-readable *)
    ]} *)

type counter
(** A named monotonic integer, atomic across domains. *)

type timer
(** A named accumulator of wall-clock spans (call count + total seconds). *)

type series
(** A named append-only sequence of float observations, in append order —
    used for convergence diagnostics (e.g. confidence half-width after
    each Monte Carlo batch). A series keeps its newest 4096 observations
    (one whole Monte Carlo run's convergence trajectory) plus a count of
    all of them, so a process that records forever holds bounded
    memory. *)

type histogram
(** A named {!Hdr} histogram (log-bucketed, lock-free, bounded-relative-
    error quantiles) — used by the serve flight recorder for per-op
    latency and frame-size distributions. *)

val enabled : unit -> bool
(** Current state of the global switch (off at program start). *)

val enable : unit -> unit

val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter, timer, and histogram and clear every series.
    Registered names survive (instruments are created once, at module
    initialization). *)

(** {1 Instruments}

    Creation is idempotent by name: the same name returns the same
    underlying instrument, so modules can declare their instruments at
    top level without coordination. *)

val counter : string -> counter

val add : counter -> int -> unit
(** Atomic add; no-op while disabled. *)

val incr : counter -> unit

val count : counter -> int
(** Current value (reads regardless of the switch). *)

val timer : string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** [time t f] runs [f] and, when enabled, charges its wall-clock duration
    to [t]. When disabled it is exactly [f ()]. *)

val timer_stats : timer -> int * float
(** (calls, total seconds). *)

val series : string -> series

val observe : series -> float -> unit
(** Append an observation; no-op while disabled. Past 4096
    observations, the oldest is dropped. *)

val observations : series -> float array
(** Snapshot of the newest (at most 4096) observations, in append
    order. *)

val observed : series -> int
(** Observations appended since creation or the last {!reset}, including
    those the series no longer keeps. *)

val histogram : string -> histogram

val record : histogram -> float -> unit
(** One atomic bucket increment; no-op while disabled. The unit is the
    caller's (the serve layer uses nanoseconds for durations — names end
    in [_ns] — and bytes for sizes). *)

val hist_snapshot : histogram -> Hdr.snapshot
(** Current contents as a mergeable {!Hdr.snapshot} (reads regardless of
    the switch). *)

val hist_count : histogram -> int

(** {1 Output} *)

val json_value : unit -> Json.t
(** The whole registry as a {!Json.t} value, for embedding into larger
    reports (e.g. the run-provenance record). *)

val to_json : unit -> string
(** The whole registry as a JSON object:
    [{"enabled": bool,
      "counters": {name: int, ...},
      "timers": {name: {"calls": int, "seconds": float}, ...},
      "series": {name: [float, ...], ...},
      "histograms": {name: {"count", ..., "p50", ..., "buckets"}, ...}}]
    (histogram objects per {!Hdr.json_of_snapshot}; series list the
    observations they keep, per {!observations}). Names are sorted;
    non-finite floats are emitted as [null]. *)

val print_report : ?oc:out_channel -> unit -> unit
(** Human-readable dump (counters, timers, series summaries), sorted by
    name. Instruments that never fired are omitted. *)
