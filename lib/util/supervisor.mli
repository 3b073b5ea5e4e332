(** Supervised batch execution: bounded in-flight concurrency over worker
    domains, deadline-aware admission control with load shedding, a
    circuit breaker for flappy estimators, and graceful signal handling.

    The paper's estimators are single long-running statistical jobs; the
    production shape (HL-Pow / PowerGear style campaigns) is {e fleets} of
    them — hundreds of design points, each an independent estimate. This
    module is the generic runner for such fleets: it knows nothing about
    power estimation, only about jobs, budgets, deadlines, and failure
    containment. The batch CLI ([hlpower batch]) wires it to
    {!Hlp_power.Probprop.estimate_guarded} plus per-job {!Journal}s.

    Everything observable is counted: admissions, sheds, failures, and
    breaker transitions appear in {!Telemetry}
    (["supervisor.jobs_run"], ["supervisor.sheds"],
    ["supervisor.deadline_sheds"], ["supervisor.breaker_opens"], ...) and
    as {!Trace} instants, so a run report shows why a job never ran. *)

(** {1 Circuit breaker}

    A named three-state breaker (closed -> open -> half-open) guarding a
    fallible-but-preferred path: repeated failures open it, callers skip
    the path, and after a cooldown one probe may try it again — success
    closes the breaker, failure re-opens it for another cooldown.

    Its only user is perfbench's batch body, which guards the symbolic BDD
    stage with one. [hlpower batch] and the serve daemon must not:
    [Hlp_power.Probprop.symbolic]'s memo already attempts each circuit's
    BDD once per budget range, and a breaker would make an answer depend
    on the jobs before it. *)

type breaker

type breaker_state = Closed | Open | Half_open

val breaker :
  ?failure_threshold:int -> ?cooldown_s:float -> string -> breaker
(** [breaker name] with [failure_threshold] consecutive failures to open
    (default 3) and [cooldown_s] seconds open before half-opening
    (default 30). Raises [Err.Error (Invalid_input _)] on a
    non-positive threshold or a non-finite/negative cooldown. Safe to
    share across worker domains (mutex-protected). *)

val breaker_state : breaker -> breaker_state

val breaker_allows : breaker -> bool
(** Ask permission to take the guarded path. [Closed]: always true.
    [Open]: false until the cooldown elapses (monotonic {!Clock}), at
    which point the breaker half-opens and exactly {e one} caller gets
    true (the probe); concurrent callers keep getting false until the
    probe reports. Every [true] must be paired with a later
    {!breaker_success} or {!breaker_failure}. *)

val breaker_success : breaker -> unit
(** The guarded path worked: resets the failure count; a half-open probe
    success closes the breaker (counted in ["supervisor.breaker_closes"]). *)

val breaker_failure : breaker -> unit
(** The guarded path tripped: bumps the consecutive-failure count; at the
    threshold (or on a half-open probe failure) the breaker opens and the
    cooldown restarts (counted in ["supervisor.breaker_opens"], with a
    {!Trace} instant carrying the breaker name). *)

(** {1 Batch job runner} *)

type stats = {
  ran : int;  (** jobs whose [run] was invoked (whatever the outcome) *)
  ok : int;  (** jobs that returned [Ok] *)
  failed : int;  (** jobs whose [run] returned a typed error *)
  shed_queue : int;  (** rejected at admission: queue over budget *)
  shed_deadline : int;  (** never started: batch deadline / cancellation *)
}

val run_jobs :
  ?max_inflight:int ->
  ?queue_budget:int ->
  ?deadline_s:float ->
  ?token:Guard.token ->
  (int -> Guard.t -> 'job -> 'r) ->
  'job array ->
  ('r, Err.t) result array * stats
(** [run_jobs f jobs] runs every admitted job on a pool of at most
    [max_inflight] worker domains (default {e half} the recommended
    domain count, at least 1) and returns one result slot per job, in job
    order.

    {e Admission control}: with [queue_budget] set, jobs beyond the first
    [queue_budget] are shed immediately with
    [Error (Overloaded {queue = "supervisor.queue"; _})] — bounded-queue
    load shedding, a typed answer instead of unbounded latency. With
    [deadline_s] set, jobs that have not {e started} when the batch
    deadline passes (or when [token] is cancelled, e.g. by a signal
    handler) are shed with the corresponding typed error without running.

    Each started job receives its index and a {!Guard.t} carrying the
    remaining batch deadline and [token]; long jobs must thread it into
    their estimators so cancellation takes effect at batch granularity.
    [f]'s typed errors ({!Err.Error}) are contained in the job's slot;
    any other exception — from the job body, a tracer args thunk, or the
    worker's own bookkeeping — is contained as
    [Error (Worker_failure {shard = index; _})] carrying the printed
    exception, and the pool keeps draining. (Letting it escape used to
    kill the worker domain silently and hang the runner's completion
    poll.)

    Workers never outlive the call: all domains are joined before it
    returns, even on cancellation. Raises [Invalid_input] on non-positive
    [max_inflight]/[queue_budget] or a non-finite/negative [deadline_s]. *)

(** {1 Watchdog}

    Process supervision for the crash-only daemon: start a child (via
    re-exec — never bare fork under OCaml 5 domains), watch it with
    [waitpid] polls and an optional liveness probe, restart it on crash
    or wedge with decorrelated-jitter backoff, and give up through a
    flap breaker when restarts cluster faster than the window allows.
    Generic over the child: what to start, how to probe, and where
    lifecycle events go are all callbacks, so this module stays
    power-agnostic (the [hlpower supervise] CLI wires it to the serve
    daemon and a {!Journal.Lines} supervision journal).

    Telemetry: ["watchdog.starts"], ["watchdog.restarts"],
    ["watchdog.probe_misses"], ["watchdog.gave_up"]. *)

type watchdog_event =
  | Wd_started of int  (** child started (pid) *)
  | Wd_healthy of int  (** first successful probe of this incarnation *)
  | Wd_probe_timeout of int * int
      (** (pid, consecutive misses) — the child is wedged and about to
          be terminated *)
  | Wd_exited of int * string  (** (pid, status) — crash detected *)
  | Wd_restarting of float  (** backoff sleep before the next start *)
  | Wd_gave_up of int  (** flap breaker tripped (restarts in window) *)
  | Wd_draining of int  (** propagating SIGTERM to the child (pid) *)
  | Wd_drained of int * string  (** (pid, final status) — clean stop *)

val watchdog_event_json : watchdog_event -> Json.t
(** One supervision-journal line per event: [{ts, event, ...}] with
    [event] one of [started], [healthy], [probe-timeout], [exited],
    [restarting], [gave-up], [draining], [drained]. *)

val status_string : Unix.process_status -> string
(** ["exit N"] / ["signal SIGKILL"]-style rendering of a wait status. *)

val watch :
  ?probe:(unit -> bool) ->
  ?probe_every_s:float ->
  ?probe_misses:int ->
  ?backoff_base_s:float ->
  ?backoff_cap_s:float ->
  ?flap_window_s:float ->
  ?flap_max:int ->
  ?grace_s:float ->
  ?seed:int ->
  ?on_event:(watchdog_event -> unit) ->
  ?token:Guard.token ->
  start:(unit -> int) ->
  unit ->
  [ `Drained | `Gave_up of int ]
(** [watch ~start ()] runs the supervision loop in the calling domain
    until drain or give-up. [start] spawns one child incarnation and
    returns its pid (use [Unix.create_process] — re-exec, not fork).

    {b Liveness.} Every [probe_every_s] (default 0.5 s) the optional
    [probe] is called (exceptions count as failure); [probe_misses]
    (default 4) consecutive failures declare the child wedged — it is
    terminated (SIGTERM, then SIGKILL after [grace_s], default 5 s) and
    the crash path runs. A successful probe resets the miss count and,
    once per incarnation, emits [Wd_healthy].

    {b Crash & backoff.} A child exit (or induced wedge-kill) schedules
    a restart after a decorrelated-jitter sleep between [backoff_base_s]
    (default 0.1 s) and [backoff_cap_s] (default 5 s); [seed] fixes the
    jitter stream for tests. More than [flap_max] (default 5) restarts
    inside the sliding [flap_window_s] (default 30 s) trip the flap
    breaker: [`Gave_up n] — the caller turns this into a typed non-zero
    exit rather than looping a crashing binary forever.

    {b Drain.} Cancelling [token] (the {!with_graceful_stop} handler)
    propagates SIGTERM to the child, waits up to [grace_s] for it to
    drain, SIGKILLs a straggler, reaps it, and returns [`Drained]. The
    backoff sleep also honours the token.

    [on_event] receives every lifecycle transition (exceptions
    swallowed); serialize with {!watchdog_event_json} into a
    {!Journal.Lines} supervision journal. Raises the typed
    [Invalid_input] on non-positive tuning parameters. *)

(** {1 Signals} *)

val with_graceful_stop :
  ?signals:int list -> (Guard.token -> 'a) -> 'a * int option
(** [with_graceful_stop f] installs handlers for [signals] (default
    SIGINT and SIGTERM) that cancel the token handed to [f], runs [f],
    restores the previous handlers (also on exceptions), and reports the
    signal that fired, if any. The handler only flips the token — flushing
    journals and writing final reports is the caller's job, after [f]
    drains — so the process exits through the normal path with everything
    synced, and the caller can exit with the shell convention
    [128 + signum] ({!signal_exit_code}). *)

val signal_exit_code : int -> int
(** [signal_exit_code signum] is the conventional exit code for a run
    stopped by [signum]: 130 for SIGINT, 143 for SIGTERM. *)
