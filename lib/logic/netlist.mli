(** Gate-level netlists.

    A netlist is a directed graph of {!Gate.kind} instances. Primary inputs,
    constant drivers, and D-flip-flop outputs are sources; every
    combinational gate refers only to nodes created before it, so node-id
    order is a valid topological order of the combinational logic (the
    builder enforces this; flip-flop data pins may close feedback loops).

    This is the structural substrate every estimation technique in the paper
    consumes: total/module capacitance for the entropy models, gate
    equivalents for the complexity models, per-node switched capacitance for
    the "gate-level reference" power that macro-models are judged against. *)

type wire = int
(** A wire is the id of its driving node. *)

type node = { kind : Gate.kind; fanin : wire array }

type t = private {
  nodes : node array;
  inputs : wire array;  (** primary inputs, in declaration order *)
  outputs : (string * wire) array;  (** named primary outputs *)
  dffs : wire array;  (** flip-flop nodes, in declaration order *)
  dff_init : bool array;  (** initial state, parallel to [dffs] *)
  input_names : string array;  (** parallel to [inputs] *)
  fingerprint : int64;  (** {!val-fingerprint}, computed by {!Builder.finish} *)
}

val num_nodes : t -> int
val num_gates : t -> int
(** Combinational cells only (excludes inputs, constants, flip-flops). *)

val num_dffs : t -> int

(** {1 Building} *)

module Builder : sig
  type b

  val create : unit -> b

  val count : b -> int
  (** Number of nodes created so far; node ids [count .. ] will be assigned
      to whatever is built next, which lets callers tag id ranges with
      metadata (e.g. the Table I category map). *)

  val input : ?name:string -> b -> wire
  val inputs : ?prefix:string -> b -> int -> wire array
  val const_ : b -> bool -> wire
  val gate : b -> Gate.kind -> wire array -> wire
  val buf : b -> wire -> wire
  val not_ : b -> wire -> wire
  val and_ : b -> wire list -> wire
  (** n-ary AND; a single wire passes through, an empty list is constant 1. *)

  val or_ : b -> wire list -> wire
  val nand_ : b -> wire list -> wire
  val nor_ : b -> wire list -> wire
  val xor_ : b -> wire -> wire -> wire
  val xnor_ : b -> wire -> wire -> wire
  val mux : b -> sel:wire -> a0:wire -> a1:wire -> wire
  (** [mux ~sel ~a0 ~a1] is [a1] when [sel] is high, else [a0]. *)

  val dff : ?init:bool -> b -> wire -> wire
  (** Register whose data pin is already known. *)

  val dff_feedback : ?init:bool -> b -> (wire -> wire) -> wire
  (** [dff_feedback b f] creates a register, feeds its output [q] to [f],
      and connects the returned wire to the data pin — the idiom for FSM
      next-state feedback. Returns [q]. *)

  val output : b -> string -> wire -> unit
  val finish : b -> t
end

(** {1 Structural analysis} *)

val fanout_counts : t -> int array
(** Per-node number of consumers (flip-flop data pins count). *)

val node_capacitance : t -> float array
(** Effective switched capacitance of each node: cell intrinsic output
    capacitance + statistical wire load (a function of fanout) + the input
    capacitance of every consumer pin. Toggling node [i] switches
    [node_capacitance.(i)]. *)

val total_capacitance : t -> float
(** Sum of {!node_capacitance}: the C_tot of the paper's entropy-based
    power expression. *)

val gate_equivalents : t -> float
(** Design size in NAND2 equivalents (Chip Estimation System unit). *)

val levels : t -> float array
(** Arrival time of each node under the library delays (inputs and register
    outputs at 0.0). *)

val critical_path : t -> float
(** Longest combinational arrival time over all nodes. *)

val comb_levels : t -> int array
(** Integer topological level of each node: inputs, registers, and
    zero-fanin constant drivers at 0, combinational gates at
    [1 + max fanin level]. Gates on the same level never read each other,
    so a level is a unit of reorderable evaluation — the contract the
    compiled replay kernel ({!Hlp_sim.Kernel}) builds its
    struct-of-arrays schedule on. Dangling (fanout-free) nodes are
    levelized like any other: they still switch capacitance. *)

val logic_depth : t -> int
(** Longest combinational path measured in gate counts. *)

val fingerprint : t -> int64
(** Structural hash (FNV-1a over every gate kind, fanin wire, port name,
    and register init). A checkpoint journal records it in its header so
    a resume against a {e different} circuit is detected instead of
    silently producing a garbage estimate. Stable across processes —
    depends only on the structure, never on addresses or hash seeds.

    {!Builder.finish} walks the structure once and stores the result, so
    this is a field read: every key built from it (the daemon's estimate
    cache, the kernel plan cache, the symbolic memo, checkpoint headers)
    costs nothing per request, whichever circuit the last one named. The
    price is one walk per build, whether or not anything keys on it. *)

val validate : t -> unit
(** Asserts structural invariants: arities match, combinational fanins
    precede their gate, flip-flop pins are in range. Raises [Failure] with
    a diagnostic otherwise. *)

val stats_string : t -> string
(** One-line human-readable summary. *)
