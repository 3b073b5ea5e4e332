(** Seeded fault injection for the guarded-execution test harness.

    A small set of named injection points is compiled into the hot paths
    (disabled they cost one [Atomic.get] plus a mask test, and the whole
    harness is off by default). When armed via {!configure}, each visit to
    an armed point {e draws}: an atomic per-point sequence number is
    hashed (splitmix64) with the configured seed, and the point fires if
    the resulting uniform deviate falls under the configured rate. The
    multiset of fired draws therefore depends only on
    [(seed, rate, #draws)] — worker-domain scheduling can permute {e which
    unit} absorbs a fault, but not {e how many} fire, and any single
    unit's retry draws fresh sequence numbers (transient-fault model).

    Injection points and what a firing simulates:
    - [Gate_eval]: a gate-evaluation raise inside {!Hlp_sim.Funcsim} /
      {!Hlp_sim.Bitsim} steps (bad netlist memory, cosmic ray — an
      arbitrary exception on the innermost path);
    - [Trace_sample]: a poisoned (non-finite) per-transition macro-model
      value inside {!Hlp_power.Sampling.prepare};
    - [Domain_kill]: a Monte Carlo unit dying at pickup (each attempt
      of a {!Hlp_sim.Parsim.monte_carlo_units} unit, and each four-unit
      pass, draws once);
    - [Bdd_blowup]: artificial BDD node-budget exhaustion — {!Bdd} raises
      the same typed [Budget_exceeded] as a real blowup, exercising the
      symbolic-to-sampling degradation chain without building a large
      diagram. *)

type point = Gate_eval | Trace_sample | Domain_kill | Bdd_blowup

val all_points : point list
val point_name : point -> string

val configure : ?seed:int -> ?rate:float -> point list -> unit
(** Arm the given points at the given firing probability (default 0.05)
    and reset all draw/fire counters. Raises [Err.Error (Invalid_input _)]
    unless [rate] is in [[0, 1]]. *)

val disarm : unit -> unit
(** Disarm every point (the program-start state). *)

val enabled : unit -> bool
val armed : point -> bool

val fire : point -> bool
(** Draw at this point: [true] iff armed and this draw's seeded deviate
    falls under the rate. Safe from any domain. *)

val fired : point -> int
(** Number of firings since the last {!configure}. *)

val injected_exn : point -> exn
(** The exception an injection site raises ([Failure] with a recognizable
    message — deliberately {e untyped}, faults arrive as arbitrary
    exceptions and containment must not depend on their shape). *)

val trip : point -> unit
(** [if fire p then raise (injected_exn p)] — the common site idiom. *)

val with_faults : ?seed:int -> ?rate:float -> point list -> (unit -> 'a) -> 'a
(** Run a thunk with the points armed, disarming afterwards (tests). *)
