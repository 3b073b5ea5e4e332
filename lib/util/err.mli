(** Typed error taxonomy for every failure the toolkit can degrade into.

    The paper's central practical tension — exact symbolic estimation is
    precise but blows up unpredictably, sampling is the robust fallback —
    only becomes an engineering property if resource exhaustion is a
    {e value}, not a crash. Every library path reachable from user input
    reports failures as one of these classes (raised as {!Error} on
    exception paths, or carried in a [result] by the [*_checked] /
    [*_guarded] entry points); raw [failwith]/[assert] remains only for
    programming errors that no input can trigger.

    Each class has a stable CLI exit code ({!exit_code}), so scripted
    callers can distinguish "the input was bad" from "the budget was too
    small" without parsing stderr. *)

type t =
  | Invalid_input of { what : string; why : string }
      (** A caller-supplied value (trace, array, width, flag) is unusable. *)
  | Budget_exceeded of { budget : string; limit : int; used : int }
      (** A resource budget tripped (e.g. [budget = "bdd.nodes"]). Budgets
          are checked before the resource is consumed, so the holder of the
          budget (e.g. a {!Bdd} manager) remains consistent and usable. *)
  | Deadline_exceeded of { limit_s : float; elapsed_s : float }
      (** A {!Guard} wall-clock deadline passed. *)
  | Cancelled of { where : string }
      (** A {!Guard} cancellation token was triggered. *)
  | Worker_failure of { worker : string; attempts : int; why : string }
      (** Work raised an untyped exception with nothing left to fall back
          on. [worker] names what failed: ["engine chain"] (the last
          engine of {!Hlp_sim.Parsim.with_degradation}'s chain, with
          [attempts] the engines tried), ["job <index>"] (a
          {!Supervisor.run_jobs} job, one attempt), or ["supervised
          daemon"] (restarting too often, [attempts] its restarts). [why]
          is the printed original exception or the reason. *)
  | Overloaded of { queue : string; budget : int; pending : int }
      (** Admission control shed the work: accepting it would have pushed
          [queue] past its [budget] ({!Supervisor}'s load shedding). The
          caller should retry later or against another instance — unlike
          [Budget_exceeded] this says nothing about the work itself. *)

exception Error of t
(** The one exception library code raises for user-triggerable failures.
    Registered with [Printexc] so stray escapes still print usefully. *)

val invalid_input : what:string -> string -> exn
(** [invalid_input ~what why] is [Error (Invalid_input _)], for [raise]. *)

val budget_exceeded : budget:string -> limit:int -> used:int -> exn

val to_string : t -> string

val class_name : t -> string
(** Short stable identifier of the class (e.g. ["budget-exceeded"]). *)

val exit_code : t -> int
(** Stable process exit code per class: invalid-input 65, budget-exceeded
    66, deadline-exceeded 67, cancelled 68, worker-failure 69,
    overloaded 70. The table is append-only (pinned by the exit-code
    stability test); signal exits use the shell convention 128+signum
    (SIGINT 130, SIGTERM 143) at the CLI layer, never these codes. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching exactly {!Error} (other exceptions — programming
    errors — still escape). *)
