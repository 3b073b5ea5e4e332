(** Simulation-engine selector shared by every Monte Carlo / cosimulation
    consumer in the toolkit.

    - [Scalar]: one {!Funcsim} step per cycle per vector — the reference
      engine, bit-exact with the seed implementation.
    - [Bitparallel]: {!Bitsim} packs 63 independent vectors into one OCaml
      [int] per wire and evaluates each gate with single word-wide bitwise
      operations; toggle accounting is exact (popcount of [old lxor new]).
    - [Compiled]: the netlist is first compiled by {!Kernel} into a flat
      struct-of-arrays schedule (contiguous opcode / fanin-index /
      capacitance arrays, topologically levelized, specialized per-level
      closures, no per-gate dispatch or allocation) and replayed through
      that kernel — bit-identical to [Bitparallel] on every counter and
      float, several times faster, with the compile amortized across
      replays by a fingerprint-keyed cache.

    Rule of thumb: [Scalar] for debugging and tiny runs; [Bitparallel] for
    long single-stream cosimulation (it wins as soon as a few hundred cycles
    are simulated); [Compiled] whenever the same netlist is replayed more
    than a handful of times — the estimation service, batch campaigns, and
    recipe search all live in that regime. *)

type t = Scalar | Bitparallel | Compiled

val all : t list

val to_string : t -> string

val of_string : string -> t option
(** Accepts ["scalar"], ["bitparallel"] (or ["bitpar"]), and ["compiled"]
    (or ["kernel"]). The retired names ["parallel"] and ["par"] (a
    domain-sharded bit-parallel engine) also map to [Compiled], so old job
    files and requests keep working and get the compiled answer. *)
