(** Deadlines and cooperative cancellation for long-running estimation.

    A guard bundles an optional wall-clock deadline and an optional
    cancellation token. Estimators thread a guard through their batch /
    round loops and call {!check} at stopping-rule granularity; a tripped
    guard raises the corresponding typed {!Err.Error}
    ([Deadline_exceeded] / [Cancelled]), which the [*_guarded] entry
    points turn into a [result]. Checks are cheap (one [Atomic.get] plus,
    with a deadline, one monotonic {!Clock} read — never [gettimeofday],
    so an NTP step cannot trip a deadline) and sit inside per-batch
    loops without measurable cost; they are {e cooperative} — a deadline
    fires at the next check, not preemptively, so granularity is one batch,
    one Monte Carlo unit or ~4,000 cycles of a trace replay
    ([Hlp_sim.Parsim.replay]), never mid-gate.

    Resource budgets that are not time-shaped (BDD node counts) live with
    the resource owner ({!Bdd.manager}'s [node_limit]) and report through
    the same {!Err.t} taxonomy. *)

type token
(** A cancellation token: a named atomic flag, safe to {!cancel} from any
    domain (e.g. a signal handler or a supervising thread). *)

val token : ?name:string -> unit -> token
val cancel : token -> unit
val is_cancelled : token -> bool

type t

val create : ?deadline_s:float -> ?token:token -> unit -> t
(** A guard whose deadline (if any) starts {e now}. Raises
    [Err.Error (Invalid_input _)] on a negative or non-finite deadline. *)

val unlimited : t
(** Never trips; the default of every [?guard] parameter. *)

val elapsed_s : t -> float

val remaining_s : t -> float option
(** Seconds left before the deadline ([None] without one); may be
    negative once expired. *)

val check : ?where:string -> t -> unit
(** Raise [Err.Error (Cancelled _)] if the token fired, else
    [Err.Error (Deadline_exceeded _)] if past the deadline, else return.
    Trips are counted in the ["guard.deadline_trips"] /
    ["guard.cancel_trips"] telemetry counters. *)

val expired : t -> bool
(** Non-raising {!check}. *)

val run : t -> (t -> 'a) -> ('a, Err.t) result
(** [run g f] checks [g], runs [f g], and catches any typed error —
    the standard wrapper the [*_guarded] estimation entry points use. *)
