(** Framed request/response transport over a Unix-domain socket — the
    wire layer of the [hlpower serve] estimation daemon.

    The interactive design loop the paper targets asks the same netlist
    hundreds of times while a designer iterates; paying process startup,
    netlist construction, and sampler preparation per query swamps the
    estimator itself. This module is the generic long-lived front end:
    it knows nothing about power estimation, only about frames,
    connections, admission control, and graceful drain. The protocol
    schema and the hot caches live in [Hlp_power.Service]; the CLI wires
    both together.

    {b Framing.} Every message is one frame: a 4-byte little-endian
    payload length, a 4-byte little-endian CRC32 of the payload
    ({!Journal.crc32} — the same polynomial and discipline as the WAL),
    then the payload bytes. A length over {!max_frame_bytes} or a CRC
    mismatch is a typed [Invalid_input] error, never a silent
    truncation: the CRC turns a desynchronized or corrupted stream into
    a loud failure at the frame boundary.

    {b Scheduling.} Connections are accepted on the caller's domain and
    handed to a bounded {!pool} of [max_inflight] worker domains through
    a queue with an admission budget: when [queue_budget] connections
    are already waiting for a worker, new connections get one typed
    {!overload_frame} — carrying a [retry_after_s] hint a well-behaved
    client sleeps on before reconnecting — and are closed, the same
    load-shedding shape as {!Supervisor.run_jobs}. An accept that fails
    (a full fd table: [EMFILE], [ENFILE]) is retried a 50 ms tick
    later while the peer waits in the listen backlog. Each request runs
    under a fresh {!Guard} carrying [deadline_s], so a handler can
    degrade or stop mid-estimate.

    {b Retry semantics.} The transport cannot tell "the server never saw
    the frame" from "the response was lost", so a request is only safe to
    replay if it is idempotent. Every operation of the estimation
    protocol ([estimate], [sampler], [ping], [stats]) is pure by
    construction — estimates are deterministic in (netlist, engine, seed,
    precision) and served from a shared cache — so {!Client.request}
    retries every failure, before or after the frame was fully written;
    see [Hlp_power.Service]. A torn write is rejected by the server's CRC
    wall before any handler runs.

    {b Drain.} Cancelling [token] (e.g. from a
    {!Supervisor.with_graceful_stop} signal handler) stops the accept
    loop; workers finish the request in flight, close their
    connections, and join before {!serve} returns — so journals and
    telemetry flushed after {!serve} see a quiet pool.

    Both {!listen} and {!connect} ignore [SIGPIPE] process-wide (writes
    to a vanished peer surface as [EPIPE] and are handled
    per-connection, instead of killing the process).

    Everything observable is counted in {!Telemetry}:
    ["server.connections"], ["server.requests"], ["server.sheds"],
    ["server.accept_errors"], ["server.frame_errors"],
    ["server.slow_requests"], ["server.memory.soft_trims"],
    ["server.memory.hard_sheds"], ["server.knob_reloads"], and on the
    client side ["client.retries"], ["client.reconnects"],
    ["client.overload_waits"], ["client.exhausted"],
    ["client.restart_rides"].

    {b Flight recorder.} When {!Telemetry} is enabled, every served
    request additionally feeds histograms — ["server.queue_wait_ns"]
    (accept-to-worker wait, charged to a connection's first request) and
    per-op ["server.op.<op>.service_ns"] / [".bytes_in"] / [".bytes_out"]
    (frame sizes incl. the 8-byte header; [<op>] is the handler's
    [ctx.op], ["unknown"] when it set none, and each op's three are
    resolved once) — and, when [serve] was given
    [access_log], appends one JSON line per request: [ts] (epoch
    seconds), [rid], [op], [key], [cache], [queue_s], [service_s],
    [bytes_in], [bytes_out], [status]. Requests slower than [slow_s]
    bump ["server.slow_requests"] and emit a ["server.slow_request"]
    {!Trace} instant carrying the rid, so one id finds the request in
    the client report, the access log, and the trace. When Telemetry is
    disabled the whole recorder is one branch per request. *)

val max_frame_bytes : int
(** Hard cap on a single frame payload (64 MiB) — an admission bound on
    allocation, not a protocol limit anything legitimate approaches. *)

(** {1 Frame codec}

    Exposed for tests, the chaos proxy, and the client side; both ends
    of the socket speak exactly these functions. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_all fd b off len] writes [len] bytes of [b] from [off],
    looping over short writes and [EINTR]. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame (handles short writes). Raises
    [Err.Error (Invalid_input _)] on an oversized payload and
    [Unix.Unix_error] if the peer vanished. *)

val read_frame : ?timeout_s:float -> Unix.file_descr -> string option
(** Read one complete frame. [None] on a clean end-of-stream (the peer
    closed between frames); raises [Err.Error (Invalid_input _)] on a
    mid-frame end-of-stream, an oversized length, or a CRC mismatch.
    Retries transparently on [EINTR] and on receive timeouts
    ([EAGAIN]/[EWOULDBLOCK] from [SO_RCVTIMEO]), so a frame is never
    split by a poll tick — and never returns while the peer is merely
    slow.

    Without [timeout_s] the read is unbounded: a stalled peer stalls the
    caller. With it, the read gives up after [timeout_s] seconds with a
    typed [Deadline_exceeded]; once a frame has started, a deadline trip
    is instead a typed [Invalid_input] ("timeout mid-frame"): the frame
    boundary is lost, so the caller must drop the connection rather than
    resynchronize. A bounded read requires [SO_RCVTIMEO] on [fd] (the
    receive timeout is the poll tick that lets the deadline be observed
    while blocked); raises [Invalid_input] on a non-positive or
    non-finite timeout. *)

(** {1 Listener and connection pool}

    The parts {!serve} runs on, shared with the chaos proxy. *)

val prepare_path : string -> unit
(** Make [path] safe to bind: nothing exists — fine; a socket file
    nobody accepts on (probe connect refused) — unlink it; a socket with
    a {e live} server — typed [Invalid_input] refusal, never stealing
    the path from a running daemon; anything that is not a socket —
    typed [Invalid_input]. {!listen} calls this. *)

val listen : backlog:int -> string -> Unix.file_descr
(** [listen ~backlog path] runs {!prepare_path}, then binds [path] and
    listens on it. Ignores [SIGPIPE] process-wide. Raises the typed
    [Invalid_input] when [path] cannot be bound. *)

val pool :
  ?on_ready:(unit -> unit) ->
  ?on_tick:(unit -> unit) ->
  ?budget:(unit -> int) ->
  workers:int ->
  accepted:Telemetry.counter ->
  stop:(unit -> bool) ->
  path:string ->
  Unix.file_descr ->
  (stopping:(unit -> bool) -> Unix.file_descr -> float -> unit) ->
  unit
(** [pool ~workers ~accepted ~stop ~path fd conn] runs the scheduling
    and drain described above on the listening [fd] until [stop ()]
    holds. It runs [on_ready] once the workers are up and [on_tick]
    before each 50 ms accept tick (exceptions swallowed). [accepted]
    counts accepts; [budget] is read at each accept (none: unbounded). A
    worker runs [conn ~stopping fd queue_s] per connection, where
    [queue_s] is the accept-to-worker wait and [stopping ()] turns true
    when drain begins. The pool owns every accepted fd and closes it
    once [conn] returns or raises, which ends that connection, never its
    worker. Drain closes [fd] and unlinks [path]. *)

(** {1 Server} *)

type ctx = {
  guard : Guard.t;  (** fresh per request, carrying [deadline_s] *)
  mutable rid : string;
      (** request id. The transport stamps a {!fresh_rid} fallback; the
          protocol layer overwrites it with the caller-supplied id so
          client-side and server-side records correlate. *)
  mutable op : string;
      (** protocol op; [""] records as ["unknown"]. Set it only to an op
          the handler recognised: each distinct name registers three
          histograms for the life of the process. *)
  mutable key : string;  (** cache/fingerprint key, if the op has one *)
  mutable cache : string;  (** ["hit"], ["miss"], ["coalesced"], or [""] *)
  mutable status : string;
      (** ["ok"] (preset) or a typed error class. An exception escaping
          the handler records as its {!Err.class_name} (or
          ["exception"]) before the connection is dropped. *)
}
(** Per-request context the transport hands to the handler: the guard to
    run under, plus mutable attribution fields the protocol layer fills
    in for the access log and per-op histograms. *)

type handler = ctx -> string -> string
(** One request payload to one response payload, under the request's
    context. The handler must return its errors {e encoded in the
    response} (the service layer maps {!Err.t} to error frames); an
    exception escaping the handler closes that connection (after logging
    the request with its error class) but never the server. *)

val fresh_rid : ?prefix:string -> unit -> string
(** A process-unique request id: [<prefix><pid>-<seq>] from an atomic
    sequence. The server stamps [~prefix:"s"] (the default) on requests
    that carried no id; the service client builders stamp
    [~prefix:"c"]. *)

val retry_after_hint_s : float
(** The [retry_after_s] value {!overload_frame} carries. *)

(** {1 Hot-reloadable knobs}

    The daemon's mutable operating parameters — admission budget,
    request deadline, slow-request threshold, memory budgets — live in
    one immutable record behind an [Atomic] that every use site reads
    afresh. A SIGHUP reload is then a single {!set_knobs} of a fully
    validated record: no half-applied config, no dropped connections. *)

type knobs = {
  queue_budget : int;  (** accept-queue admission budget (default 64) *)
  deadline_s : float option;  (** per-request guard deadline *)
  slow_s : float option;  (** slow-request threshold *)
  mem_soft_bytes : int option;
      (** RSS at-or-above this triggers the [on_memory_soft] relief
          callback (proportional cache eviction) each sample *)
  mem_hard_bytes : int option;
      (** RSS at-or-above this sheds new requests with the typed
          [Overloaded] envelope until pressure recedes *)
}

val default_knobs : knobs
(** [queue_budget = 64], everything else off. *)

val validate_knobs : knobs -> unit
(** Raises the typed [Invalid_input] on a non-positive budget or
    threshold, a negative/non-finite deadline, or a soft budget above
    the hard one. *)

val set_knobs : knobs Atomic.t -> knobs -> unit
(** Validate and publish a new knob record (counted in
    ["server.knob_reloads"]). The SIGHUP path: in-flight requests keep
    the knobs they started with; every later read sees the new record. *)

val overload_frame : Err.t -> string
(** The shed frame, an error envelope with id -1:
    [{"id":-1,"ok":false,"error":{"class":...,"message":...,"exit_code":...,"retry_after_s":...}}].
    The [retry_after_s] field is the backoff hint {!Client.request}
    honors before reconnecting. *)

type memory_level =
  | Normal
  | Soft  (** at or above [mem_soft_bytes]: trim caches, keep serving *)
  | Hard  (** at or above [mem_hard_bytes]: shed new requests *)

val memory_level : knobs -> int -> memory_level
(** [memory_level knobs rss] classifies a resident-set sample of [rss]
    bytes against the knobs' memory budgets. An unreadable RSS reads as
    [0], which is [Normal]: no pressure. *)

val serve :
  ?max_inflight:int ->
  ?token:Guard.token ->
  ?on_ready:(unit -> unit) ->
  ?access_log:string ->
  ?access_log_max_bytes:int ->
  ?knobs:knobs Atomic.t ->
  ?on_tick:(unit -> unit) ->
  ?on_memory_soft:(unit -> unit) ->
  path:string ->
  handler ->
  unit
(** [serve ~path handler] runs [handler] on a {!pool} of
    [max_inflight] worker domains (default half the recommended domain
    count, at least 1) over a socket {!listen} binds at [path], until
    [token] is cancelled. A request whose frame is still arriving when
    drain begins is dropped with its connection on the next 50 ms
    receive tick, so a stalled peer cannot hold the drain open.
    [on_ready] runs once the socket is listening, before the first
    accept — tests use it to release a waiting client.

    [knobs] (default a private cell of {!default_knobs}) is the shared
    hot-reload cell: every admission check, guard creation,
    slow-threshold compare and memory sample reads it afresh, so a
    concurrent {!set_knobs} (the SIGHUP handler) takes effect between
    requests without dropping connections.

    [access_log] names a {!Journal.Lines} JSONL file recording one line
    per served request (see the module comment; rotation keeps it under
    ~2×[access_log_max_bytes], default 16 MiB). The recorder only fires
    while {!Telemetry} is enabled. The log opens before the socket
    binds: a log that cannot be opened is a typed [Invalid_input] and
    leaves no socket file behind.

    [on_tick] runs on the accept loop roughly every 50 ms (exceptions
    swallowed) — the hook for snapshot spills and reload-flag polls.

    {b Memory pressure.} When the active knobs carry memory budgets, the
    accept loop samples {!Memstat.rss_bytes} every 0.25 s and classifies
    it with {!memory_level}. At-or-above [mem_soft_bytes] each sample
    counts ["server.memory.soft_trims"] and invokes [on_memory_soft]
    (proportional cache eviction, wired by the service layer); crossing
    a level also emits a ["server.memory.soft"] / ["server.memory.hard"]
    {!Trace} instant. At-or-above [mem_hard_bytes] new requests are
    answered with the typed [Overloaded] envelope
    ([queue = "server.memory"], counted in ["server.memory.hard_sheds"]
    and ["server.sheds"]) without running the handler, until a later
    sample sees the resident set back under budget — shedding instead of
    dying to the OOM killer.

    Raises [Err.Error (Invalid_input _)] on a non-positive
    [max_inflight]/[access_log_max_bytes], invalid knob values (see
    {!validate_knobs}), an unbindable [path], or a [path] another live
    server owns. *)

(** {1 Client} *)

type conn

val connect : ?wait_s:float -> ?seed:int -> string -> conn
(** Connect to a serving socket, retrying [ENOENT]/[ECONNREFUSED] for up
    to [wait_s] seconds (default 5 — covers a daemon still starting)
    with exponential backoff and decorrelated jitter (5 ms base, 640 ms
    cap), so a fleet of clients waiting out a restart reconnects as a
    spread, not a lockstep herd. The jitter stream is seeded from the
    pid and clock by default; pass [seed] for a reproducible schedule in
    tests. Raises [Err.Error (Invalid_input _)] once the wait is
    exhausted. *)

val request : ?timeout_s:float -> conn -> string -> string
(** One round trip: write a request frame, block for the response
    frame. Raises [Err.Error (Invalid_input _)] if the server closed
    without responding (e.g. after an overload frame already consumed).
    A server that shed the connection and closed it before the request
    could be written still answers: its overload frame is returned. No
    retries — see {!Client} for the resilient wrapper.

    [timeout_s] bounds the wait with {!read_frame} (setting the socket's
    receive timeout as the poll tick) — the watchdog's health probe,
    where an unbounded read would let a wedged daemon wedge its
    supervisor too. Raises the typed [Deadline_exceeded] on timeout. *)

val close : conn -> unit

(** {1 Resilient client}

    A reconnecting wrapper around {!connect}/{!request} for callers that
    face an unreliable path to the daemon — restarts, shed load, a
    flaky network (or the chaos proxy). Not thread-safe: one [Client.t]
    per domain. *)

module Client : sig
  type t

  val create :
    ?seed:int ->
    ?max_retries:int ->
    ?backoff_base_s:float ->
    ?backoff_cap_s:float ->
    ?connect_wait_s:float ->
    ?request_timeout_s:float ->
    string ->
    t
  (** [create path] makes a client of the daemon at [path]; no
      connection is opened until the first {!request}. [max_retries]
      (default 5) bounds retries {e per request}; sleeps between
      attempts follow decorrelated jitter from [backoff_base_s]
      (default 5 ms) to [backoff_cap_s] (default 640 ms). [connect_wait_s]
      (default 5) is passed to each underlying {!connect}.
      [request_timeout_s], when given, bounds each round trip with
      {!read_frame} [~timeout_s] — without it a hung server hangs the
      caller.
      [seed] fixes the jitter stream for tests. Raises the typed
      [Invalid_input] on out-of-range parameters. *)

  val request : t -> string -> string
  (** [request t payload] performs one logical round trip, transparently
      reconnecting and retrying up to [max_retries] times. Connect and
      write failures are retried (the server's CRC wall rejects a torn
      request before any handler runs), and so are failures after the
      request frame was fully written — connection closed without a
      response, a torn or corrupt response frame, a response timeout —
      because every protocol op is pure. A frame the writer itself
      refuses (a typed error from {!write_frame}) is not retried.
      A typed overload response makes the client sleep the frame's
      [retry_after_s] hint, reconnect, and retry; when retries are
      exhausted on overload the shed frame itself is returned (it is a
      well-formed typed answer). On exhaustion of any other failure the
      last typed error is re-raised.

      {b Restart rides.} When [request_timeout_s] is set, a connect
      exhaustion (the daemon's socket gone or refusing — the signature
      of a supervised restart in progress) inside the request deadline
      re-enters the connect loop under the existing jittered backoff
      {e without} charging a retry (counted in ["client.restart_rides"]),
      so any restart shorter than the deadline is invisible to the
      caller. Past the deadline — or without one — connect exhaustion
      consumes retries as before. *)

  val counts : t -> int * int
  (** [(logical, wire)]: logical {!request} calls vs request frames
      actually written. [wire / logical] is the retry amplification a
      soak run pins. *)

  val close : t -> unit
  (** Drop the current connection, if any. The client remains usable:
      the next {!request} reconnects. *)
end
