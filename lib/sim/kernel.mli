(** Compiled struct-of-arrays replay kernel: the netlist, lowered once.

    {!Funcsim} and {!Bitsim} interpret the netlist: every gate evaluation
    loads a node record, matches on a boxed {!Hlp_logic.Gate.kind}, and
    chases a per-node fanin array. This module {e compiles} the netlist
    instead — once per structure — into a flat schedule that the replay
    loop walks with no dispatch and no allocation:

    - {b Struct-of-arrays}: destination ids, opcodes, specialized fanin
      index arrays for arity <= 3 ([fa]/[fb]/[fc]) plus a CSR pool
      (offsets + flat indices) for n-ary gates, and the capacitance
      table, all in contiguous arrays.
    - {b Levelized}: slots are ordered by {!Hlp_logic.Netlist.comb_levels}
      and grouped by opcode within a level; each maximal same-opcode run
      becomes one {e segment}.
    - {b One C settle}: a [[@@noalloc]] C primitive walks the segments
      from a flat (op, lo, hi) array and switches on the opcode once per
      segment, outside the segment's slot loop, so each slot is one
      word-wide operation on tagged OCaml ints with no dispatch.
    - {b Proven-then-unsafe}: the step and the C primitives read and
      write their arrays unchecked. The justification is a single
      construction-time bounds proof, run at the end of {!compile}: every
      destination and pin index is checked against the node count, CSR
      offsets are checked monotone and covering, every pin is checked to
      settle on a strictly earlier level, segments are checked to tile
      the slots, the accounting order is checked to be a permutation of
      the node ids, and every node but a constant is checked to be
      written exactly once per step. The arrays are immutable afterwards, so the proof
      outlives compilation. A violation fails compilation loudly
      ([Failure]); no unchecked access is ever reached.

    {b Bit-identity contract} (enforced by the differential wall in
    [test/test_kernel.ml]): against {!Bitsim} under identical stimuli,
    every node value, every per-node toggle counter, the total switched
    capacitance, and the per-lane switched-capacitance floats are
    byte-identical. Integer counters are order-free; the per-lane floats
    are not (float addition is non-associative), so the lane sums replay
    Bitsim's chronological charge order — registers in declaration
    order, then primary inputs, then remaining nodes in id order.

    {b Accounting contract.} A counted step counts toggles {e during} the
    settle: the C primitive adds popcount(old xor new) to the toggle
    count of each register and input, then of each slot's node as the
    slot writes it (the [popcnt] instruction where the CPU has one, a
    portable count otherwise). The order differs from Bitsim's, which is
    exact because integer sums are order-free; constants never toggle.
    Only with lanes tracked does a second pass run: it gathers the
    {e non-zero} delta words, with their capacitances, densely in
    accounting order, and the lane sweep folds each of those caps into
    the lanes whose delta bit is set, lane by lane in that order. Leaving
    the zero deltas out is exact: a zero delta adds [+0.0] to every lane,
    and [x +. +0.0 = x] bit for bit for every lane sum, because lane sums
    start at [+0.0] and the caps are proven finite and non-negative when
    the plan is compiled. When they are not (a pathological caps table),
    the step sweeps the same non-zero deltas through {!Bitsim.scan_lanes}
    instead, one delta at a time; a zero delta charges nothing there
    either. The kernel keeps no per-node high counts: no estimator reads
    them, and counting them cost every counted step a popcount and a
    read-modify-write per node.

    A fingerprint-keyed bounded cache ({!of_netlist}) amortizes
    compilation across the replay-many consumers (Monte Carlo campaigns,
    the estimation service, the batch runner). *)

(** {1 Compilation} *)

type t
(** A compiled plan: immutable after construction, safe to share across
    domains and to reuse for any number of simultaneous replay states. *)

val compile : ?caps:float array -> Hlp_logic.Netlist.t -> t
(** Lower a netlist into a plan, always performing the work (no cache).
    [caps] overrides {!Hlp_logic.Netlist.node_capacitance} (length must
    equal the node count). Raises [Failure] if the netlist fails
    {!Hlp_logic.Netlist.validate} or the construction-time bounds proof. *)

val of_netlist : ?caps:float array -> Hlp_logic.Netlist.t -> t
(** Like {!compile} but memoized on {!Hlp_logic.Netlist.fingerprint}
    through a bounded process-wide {!Hlp_logic.Netcache} — the
    compile-once / replay-many entry point. A custom [caps] table is not
    part of the structural fingerprint, so passing one bypasses the
    cache. *)

val clear_cache : unit -> unit
(** Drop every cached plan (tests and memory-sensitive batch drivers). *)

val cache_length : unit -> int
(** Plans currently cached — the serve daemon's stats report. *)

(** {1 Replay}

    The state mirrors {!Bitsim}'s lane model: each node holds one OCaml
    [int] whose bit [j] is the node's value in lane [j], 63 lanes per
    step. *)

type s

val lanes : int
(** 63, re-exported from {!Bitsim}. *)

val create : ?track_lanes:bool -> t -> s
(** Fresh replay state in the settled reset condition (registers at
    their init values, nothing charged), which {!compile} evaluates once
    through the compiled schedule itself. [track_lanes] as in
    {!Bitsim.create}. *)

val reset : s -> unit
(** Return a state to exactly what {!create} left: the settled reset
    condition, every counter and lane sum zero, counting on, and the next
    step latching the reset state. Allocates nothing, so one state can
    replay any number of independent runs ({!create} allocates and then
    resets). *)

val step : s -> int array -> unit
(** Advance one cycle: latch registers, drive one word per primary input
    (parallel to the netlist's input array), settle the compiled
    schedule, account. Uses double buffering — every non-constant node is
    rewritten each step, so the previous cycle's buffer is reused with no
    copying. Trips the [Gate_eval] fault-injection point like the
    interpreters. *)

val step_scalar : s -> bool array -> unit
(** Single-vector convenience: broadcasts a boolean vector into lane 0
    (remaining lanes are driven 0). With only lane 0 exercised the
    kernel's values and toggle counts match a {!Funcsim} run of the same
    stimulus — the scalar differential used in tests. *)

val run : s -> (int -> int array) -> int -> unit
(** [run s input_at n] steps [n] times with the given word source. *)

(** {1 Four units per pass}

    A Monte Carlo unit is a counted run from the reset state with lanes
    untracked, and units are independent, so a wide state settles
    {!Wide.width} (four) of them in one pass of the schedule. Node [i]'s
    word for unit [u] sits at index [4i + u] of ordinary tagged [int]
    arrays, so one unaligned 256-bit load fetches a pin for all four
    units: a [[@@noalloc]] C settle beside the one-unit one applies each
    opcode as one AVX2 instruction and adds each unit's toggles with a
    vector popcount ([vpshufb] nibble table, [vpsadbw] lane sums), in the
    same pass and order as the one-unit settle. It reads the same schedule
    arrays, under the same construction-time bounds proof.

    {b Runtime dispatch.} The wide settle is compiled for AVX2 only, on
    x86-64 with GCC or clang, and {!Wide.available} asks the CPU
    ([__builtin_cpu_supports]) once at start-up, like the AVX2 lane sweep.
    There is no portable wide loop: without AVX2, {!Wide.create} raises
    and Monte Carlo runs on the one-unit state, which is also the
    differential oracle. No option chooses between the two.

    {b Bits.} Each unit's toggle counts, and so its
    {!Wide.switched_capacitance}, equal those of a one-unit state
    stepped on that unit's words (the kernel wall checks it over the
    qcheck netlists). *)

module Wide : sig
  type plan := t

  type t
  (** Four replay states, one per unit, always counting, lanes untracked. *)

  val width : int
  (** 4: units per pass. *)

  val available : bool
  (** The CPU runs the wide settle (x86-64 with AVX2). *)

  val create : plan -> t
  (** A wide state in the settled reset condition. Raises
      [Invalid_argument] unless {!available}. *)

  val reset : t -> unit
  (** Return every unit to exactly what {!create} left, like {!reset} for
      one unit; allocates nothing, so one wide state serves any number of
      passes. *)

  val step : t -> int array -> unit
  (** Advance all four units one counted cycle. [inputs.(4k + u)] drives
      input [k] of unit [u] (length four times the netlist's input count).
      Trips the [Gate_eval] fault-injection point once per call. Counts
      four steps, each of {!lanes} lanes, in the [kernel.*] telemetry. *)

  val value : t -> unit:int -> Hlp_logic.Netlist.wire -> int
  val toggle_counts : t -> unit:int -> int array
  val switched_capacitance : t -> unit:int -> float
  (** Unit [unit]'s node word, toggle counts and switched capacitance:
      the one-unit {!value}, {!toggle_counts} and {!switched_capacitance}
      of that unit's run. *)

  val plan : t -> plan
end

(** {1 Observation} — same meanings as the {!Bitsim} accessors. *)

val value : s -> Hlp_logic.Netlist.wire -> int
val value_bool : s -> Hlp_logic.Netlist.wire -> bool
(** Lane 0 of {!value}. *)

val cycles : s -> int
val toggle_counts : s -> int array
val switched_capacitance : s -> float
val lane_switched_capacitance : s -> float array
val output_words : s -> int array
val set_counting : s -> bool -> unit
val reset_counters : s -> unit

val plan : s -> t
(** The plan this state replays. *)

(** {1 Plan inspection} — compile-time structure for tests, benches, and
    the design docs. *)

type stats = {
  nodes : int;
  slots : int;  (** combinational gates scheduled *)
  levels : int;
  segments : int;  (** same-opcode slot runs, one opcode switch each *)
  pool : int;  (** flat fanin pool length *)
  widest_level : int;
}

val stats : t -> stats
val stats_string : t -> string

val segment_summary : t -> (string * int) array
(** Opcode name and slot count of each segment, in schedule order. *)
