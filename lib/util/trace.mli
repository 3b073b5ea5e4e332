(** Hierarchical span tracing with Chrome trace-event export.

    Where {!Telemetry} aggregates (how many engine fallbacks, how long in
    replay total), [Trace] records {e structure}: which engine attempt
    ran which Monte Carlo pass, where a fallback hop sat between two
    attempts, which Monte Carlo batch tripped the deadline. The export
    is the Chrome trace-event JSON format, loadable in Perfetto
    ([ui.perfetto.dev]) or [chrome://tracing] for a flame-graph view of
    one run.

    Discipline matches {!Telemetry}: the global switch is off by default
    and every instrumented site costs exactly one predictable branch when
    disabled ({!span} is [f ()], {!instant} is a no-op). Timestamps come
    from {!Clock} (monotonic), so spans cannot go negative under NTP
    steps.

    Concurrency: each domain appends to its own bounded buffer (created
    on first use, registered globally), so worker domains (the daemon's,
    {!Supervisor.run_jobs}') trace without locking; buffers are merged
    and time-sorted at flush. When a domain's buffer fills, the
    {e newest} events are dropped (and counted in {!dropped}) in a
    nesting-preserving way: a dropped begin swallows its matching end, so
    the exported stream stays well-formed — every [E] event matches an
    earlier [B] on the same thread. *)

val enabled : unit -> bool
(** Current state of the global switch (off at program start). *)

val enable : ?capacity:int -> unit -> unit
(** Switch tracing on. [capacity] (default 65536) bounds each domain
    buffer created from now on; buffers that already exist keep theirs.
    The first [enable] pins the trace epoch: exported timestamps are
    microseconds since that moment. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded events and clear the epoch. Call only at quiescent
    points (no worker domains running). *)

(** {1 Recording} *)

val span : ?args:(unit -> (string * Json.t) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] wraps [f] in a begin/end pair on the calling domain
    (exception-safe: the span closes even if [f] raises). When disabled
    this is exactly [f ()]; [args] is a thunk so argument lists are never
    built on the disabled path. *)

val begin_span : ?args:(string * Json.t) list -> string -> unit
(** Explicit begin, for spans that cannot wrap a closure. Must be closed
    with {!end_span} on the same domain. No-op while disabled. *)

val end_span : unit -> unit

val instant : ?args:(unit -> (string * Json.t) list) -> string -> unit
(** A zero-duration marker (Chrome ["i"] event), e.g. a budget trip or an
    engine-fallback hop. No-op while disabled. *)

(** {1 Inspection & export} *)

val event_count : unit -> int
(** Events currently recorded across all domain buffers. *)

val dropped : unit -> int
(** Events dropped across all domain buffers because a buffer was full. *)

val json_value : unit -> Json.t
(** The merged trace as a Chrome trace-event object:
    [{"traceEvents": [{"name","ph","ts","pid","tid","args"}, ...],
      "displayTimeUnit": "ms", "droppedEvents": int}].
    Events are sorted by timestamp (stable within a domain); [ts] is in
    microseconds since the trace epoch. Each domain buffer that dropped
    events additionally contributes one ["trace.dropped"] metadata event
    ([ph = "M"], [args.dropped] = its count), so truncation is visible
    inside the trace viewer, not only in [droppedEvents]. *)

val to_json : unit -> string
(** Compact one-line serialization of {!json_value}. *)

val write : path:string -> unit
(** Write {!to_json} (plus a newline) to [path]. Buffers that dropped
    events are also named on stderr (per-tid totals) so a silent ring
    overflow cannot masquerade as a complete flush. *)
