(** Bit-parallel zero-delay simulation: 63 independent vectors per step.

    Every wire holds one OCaml [int] whose bit [j] is the wire's boolean
    value in {e lane} [j] — 63 independent copies of the circuit simulated
    at once. Each gate evaluation is a single word-wide bitwise operation
    (AND/OR/XOR/NOT over whole words), so one [step] advances all 63 lanes
    by one clock cycle for the cost of roughly one scalar {!Funcsim} step.

    Accounting is exact, not approximate: a node's toggle count increases by
    [popcount (old lxor new)], so after identical stimuli the per-node
    toggle counters equal the element-wise sum over 63 independent
    {!Funcsim} runs — the differential property enforced by
    [test/test_bitsim.ml]. Switched capacitance is derived from the integer
    toggle counts ([sum_i cap(i) * toggles(i)]), making it independent of
    evaluation order. There are no per-node high counts: no estimator
    reads them, and {!value} exposes every settled word for a caller that
    wants them. A counted step popcounts only the nodes that changed.

    Lanes share nothing except the netlist: flip-flop state, input vectors,
    and toggle history are all per-lane. Sequential circuits work (all lanes
    start from the same reset state); serial single-stream traces of
    {e combinational} circuits can also be replayed bit-parallel by chunking
    — see {!Parsim.replay}. *)

type s

val lanes : int
(** Number of independent vectors per word: 63 (OCaml [int] width). *)

val create : ?caps:float array -> ?track_lanes:bool -> Hlp_logic.Netlist.t -> s
(** [track_lanes] (default [false]) additionally maintains a per-lane
    switched-capacitance accumulator ({!lane_switched_capacitance}), needed
    when per-lane resolution matters (trace replay); it costs one pass over
    the toggling bits of each changed word.

    [caps] supplies a precomputed {!Hlp_logic.Netlist.node_capacitance}
    array, letting callers that create many short-lived simulators of the
    same netlist (chunked trace replay, Monte Carlo batches) share the
    read-only capacitance table instead of recomputing it per instance. *)

val step : s -> int array -> unit
(** Apply one input word per primary input (parallel to [net.inputs]); bit
    [j] of word [k] is input [k]'s value in lane [j]. *)

val run : s -> (int -> int array) -> int -> unit
(** [run s input_at n] steps [n] times with the given word source. *)

val value : s -> Hlp_logic.Netlist.wire -> int
(** Current settled 63-lane word of a node. *)

val output_words : s -> int array
(** Per-lane outputs: element [j] packs the settled primary outputs of lane
    [j] with output index [k] at bit [k] (requires at most 62 outputs). *)

val pack_lanes : bool array array -> int array
(** [pack_lanes vectors] transposes up to 63 scalar input vectors (element
    [j] becomes lane [j]) into the word-per-input form {!step} consumes. *)

val cycles : s -> int
(** Number of steps taken (each step is one cycle in all 63 lanes). *)

val toggle_counts : s -> int array
(** Per-node toggles summed over all lanes since creation. *)

val switched_capacitance : s -> float
(** Total capacitance switched over all lanes, computed as
    [sum_i cap(i) * toggles(i)] from the exact integer toggle counts. *)

val lane_switched_capacitance : s -> float array
(** Per-lane switched capacitance (length {!lanes}). Raises [Invalid_argument]
    unless the simulator was created with [~track_lanes:true]. *)

val set_counting : s -> bool -> unit
(** Pause/resume all accounting (toggles, lane capacitance) without
    touching circuit state — used for warm-up steps during trace replay. *)

val reset_counters : s -> unit
(** Zero the accounting without touching circuit state. *)

val scan_lanes : float array -> float -> int -> unit
(** [scan_lanes acc cap delta] adds [cap] to [acc.(j)] for every set bit
    [j] of [delta] — the per-lane capacitance accounting primitive (a
    256-entry byte table keeps it cheap). Within one node each lane
    receives at most one addition, so any visit order gives bit-identical
    per-lane sums; shared with {!Kernel} so both engines charge lanes
    through literally the same code. *)
