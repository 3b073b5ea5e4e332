(** The estimation service: protocol schema, dispatch, and hot caches of
    the [hlpower serve] daemon.

    {!Hlp_util.Server} moves CRC-framed payloads; this module gives the
    payloads meaning. A request is one compact JSON object; the response
    is an envelope [{"id", "rid", "ok", "cached", "result"}] on success
    or [{"id", "rid", "ok": false, "error": {"class", "message",
    "exit_code"}}] on failure, with ["error"]["class"] drawn from the
    {!Hlp_util.Err} taxonomy (so a shed request carries
    ["overloaded"]/70 — admission control speaks the same typed language
    as the batch runner).

    {b Request ids.} Every request carries a ["rid"] string (the
    builders stamp a fresh client-side one when not given); the service
    threads it into the transport's {!Hlp_util.Server.ctx} — so the
    access log and the ["service.<op>"] trace spans record it — and
    echoes it in the response envelope. One string therefore finds a
    request on both sides of the wire.

    {b Ops.}
    - ["ping"]: liveness; an optional ["sleep_s"] occupies the worker —
      the deterministic way tests and the bench provoke overload.
    - ["estimate"]: guarded estimation of a generator circuit
      (["circuit"], ["width"], ["engine"], ["seed"],
      ["relative_precision"], optional ["max_cycles"] in
      1..10,000,000 and ["node_limit"] in 1..2,000,000).
    - ["sampler"]: macro-model cosimulation of the circuit (census,
      gate reference, and a sampled estimate).
    - ["stats"]: cache occupancy (including in-flight and coalesced
      estimate counts, and the entries of {!Probprop.symbolic_memo} as
      ["symbolic"]) — a thin alias for the same fields [metrics] serves.
    - ["metrics"]: the full flight-recorder snapshot — the [stats]
      fields plus uptime, every {!Hlp_util.Telemetry} counter and
      histogram (buckets + p50/p90/p99/p999), and per-cache
      occupancy/hit-ratio objects. {!prometheus_of_metrics} renders the
      result in Prometheus text exposition format.

    {b Idempotency.} Every op is pure by construction and therefore safe
    to retry ({!Hlp_util.Server.Client} retries them freely): [estimate]
    is a function of (netlist, engine, seed, precision, budgets) alone —
    whatever the service answered before, including budget trips — and
    served from a cache of serialized results; [sampler] is
    deterministic in (circuit, width, engine, seed, cycles); [ping] and
    [stats] only read. No op mutates state a replay could double-apply —
    the caches and the symbolic memo are exact memoization, so
    recomputation or eviction changes occupancy, not answers.

    {b Coalescing.} Concurrent identical [estimate] requests are
    single-flight: the estimate cache's in-flight table lets the first
    request compute while the rest park and share the result
    (["server.estimates.coalesced"] counts the joiners), so a
    thundering herd of N identical requests costs one computation. A
    failing computation propagates its typed error to every joiner and
    caches nothing.

    {b Hot caches} (all {!Hlp_logic.Netcache}, telemetry under
    [server.*]): constructed netlists (["server.netlists"]), fitted
    macro-models (["server.models"]), and finished estimates
    (["server.estimates"], keyed by fingerprint + engine + seed +
    precision + cycle budget + node limit). The estimate cache stores
    the {e serialized} result object, so a warm answer is byte-identical
    to the cold one by construction. Two process-wide caches serve it
    too: {!Probprop.symbolic_memo} (["probprop.symbolic"]), which
    attempts each circuit's BDD once per budget range, and
    {!Hlp_sim.Kernel}'s compiled plans. Failed estimates are never
    cached. *)

type t

val create : unit -> t
(** A fresh service with empty caches (capacities 64 netlists, 64
    models, 256 estimates). *)

val handle : t -> Hlp_util.Server.ctx -> string -> string
(** The {!Hlp_util.Server.handler}: request payload to response payload.
    Never raises — malformed JSON, unknown ops/circuits/engines, typed
    estimation errors, and internal exceptions all come back as error
    envelopes. Fills the context's attribution fields (rid, op, cache
    key and hit/miss/coalesced outcome, typed status) for the
    transport's access log and per-op histograms. *)

(** {1 Crash-only lifecycle}

    The daemon's warm state is rebuildable but expensive (the warm/cold
    ratio E39 pins is ~40×), so the serve loop periodically spills the
    finished estimates (stored serialized, so a restored hit is
    byte-identical by construction) to one snapshot file, and a restarted
    daemon rehydrates from it. The format is a stream of
    {!Hlp_util.Journal} CRC-framed records written with
    {!Hlp_util.Journal.write_atomic}: a header binding
    {!snapshot_version} and {!snapshot_recipe} (the estimate cache-key
    derivation, spelled out — key-recipe drift invalidates old
    snapshots instead of mis-keying them), the entries, and a trailer
    carrying the entry count. Restore is paranoid: torn bytes, a CRC
    miss, version or recipe skew, a count mismatch, or one undecodable
    record each degrade to a counted cold start ([`Cold reason]) —
    never an exception, never a partially-trusted cache. Counters under
    ["server.snapshot.*"]: [saves], [restores], [restored_entries],
    [cold_starts], [torn], [version_mismatch], [recipe_mismatch].

    Netlists, prepared models and {!Probprop.symbolic_memo} are not
    spilled: their values are live structures with no serial form, and
    they rebuild on demand. Version 2 dropped version 1's symbolic
    records, so a version-1 file is a counted ["version-mismatch"] cold
    start. *)

val snapshot_version : int

val snapshot_recipe : string
(** The estimate cache-key derivation the snapshot binds. Any change to
    how [op_estimate] folds its key {b must} change this string. *)

val save_snapshot : t -> path:string -> int
(** Spill the estimate cache to [path] atomically,
    returning the number of entries written. Raises [Sys_error] on an
    unwritable path (the serve loop catches and counts, never dies). *)

val load_snapshot : t -> path:string -> [ `Restored of int | `Cold of string ]
(** Rehydrate the estimate cache from [path]. [`Restored n] installed [n]
    entries; [`Cold reason] ([reason] one of ["absent"], ["torn"],
    ["unreadable"], ["malformed"], ["truncated"], ["version-mismatch"],
    ["recipe-mismatch"]) means the cache was left (or wiped back to)
    empty. Never raises. *)

val trim : ?fraction:float -> t -> int
(** Evict [fraction] (default 0.25, clamped to [0,1]) of each cache,
    {!Probprop.symbolic_memo} included, in second-chance order, returning
    entries evicted — the memory-pressure relief valve
    {!Hlp_util.Server}'s soft budget invokes. *)

val overload_response : Hlp_util.Err.t -> string
(** The shed frame ([serve ~overload]): an error envelope (id -1)
    carrying the typed [Overloaded] plus the [retry_after_s] backoff
    hint ({!Hlp_util.Server.retry_after_hint_s}) that
    {!Hlp_util.Server.Client} sleeps on before reconnecting. *)

val circuits : (string * (int -> Hlp_logic.Netlist.t)) list
(** The servable generator circuits, by protocol name — the same zoo the
    CLI exposes. *)

val prometheus_of_metrics : Hlp_util.Json.t -> string
(** Render a [metrics] {e result object} as Prometheus text exposition:
    counters as [counter] metrics, cache fields as labelled
    [hlpower_cache_*] gauges, histograms as [histogram] metrics with
    cumulative [_bucket{le=...}] lines, [+Inf], [_sum], and [_count].
    Metric names are the telemetry names prefixed [hlpower_] with
    non-identifier characters mapped to ['_']. *)

(** {1 Requests} — builders the CLI client and bench use, so the schema
    has one producer. Omitted optionals are omitted from the JSON and
    take the server-side defaults (engine compiled, seed 47,
    precision 0.05) — except [rid], which defaults to a fresh
    client-side id ({!Hlp_util.Server.fresh_rid}[ ~prefix:"c"]). *)

val ping_request : ?id:int -> ?rid:string -> ?sleep_s:float -> unit -> string

val estimate_request :
  ?id:int ->
  ?rid:string ->
  ?engine:string ->
  ?seed:int ->
  ?relative_precision:float ->
  ?max_cycles:int ->
  ?node_limit:int ->
  circuit:string ->
  width:int ->
  unit ->
  string

val sampler_request :
  ?id:int ->
  ?rid:string ->
  ?engine:string ->
  ?seed:int ->
  ?cycles:int ->
  circuit:string ->
  width:int ->
  unit ->
  string

val stats_request : ?id:int -> ?rid:string -> unit -> string
val metrics_request : ?id:int -> ?rid:string -> unit -> string

(** {1 Responses} *)

type response = {
  id : int;  (** -1 when the server could not read the request id *)
  rid : string;  (** echoed request id; [""] on a pre-rid envelope *)
  ok : bool;
  cached : bool;  (** served from the estimate cache *)
  result : Hlp_util.Json.t option;  (** present iff [ok] *)
  error : (string * string * int) option;
      (** class, message, exit code — present iff not [ok] *)
}

val parse_response : string -> (response, string) result

val result_string : response -> string option
(** The result object re-serialized compactly — the byte-identity unit:
    two responses whose [result_string]s agree carried the same answer,
    whatever their envelope (id, cached flag) said. *)
