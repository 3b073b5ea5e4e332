(** Deterministic pseudo-random number generation.

    All stochastic components of the toolkit draw from this splitmix64-based
    generator so that every experiment is reproducible from a seed. The
    global OCaml [Random] state is never used. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes an independent generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    subsequent outputs of [t]; both remain usable. *)

val state : t -> int64
(** The full internal state (splitmix64 is a 64-bit counter generator).
    [of_state (state t)] continues [t]'s stream exactly — the capture a
    checkpoint journal records so a resumed Monte Carlo run draws the
    byte-identical remainder of the stream. *)

val of_state : int64 -> t
(** Rebuild a generator from a captured {!state}. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val fill_words : t -> int array -> pos:int -> stride:int -> count:int -> unit
(** [fill_words t words ~pos ~stride ~count] draws [count] outputs and
    stores the [i]-th as [Int64.to_int (bits64 t)] at
    [words.(pos + i * stride)], leaving [t] where [count] calls of
    {!bits64} leave it. The bulk draw the Monte Carlo units use for their
    input words: it allocates nothing per word, where each {!bits64}
    boxes an [int64]. Raises [Invalid_argument] unless [count >= 0],
    [pos >= 0], [stride >= 1] and every index is in bounds. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate by Box-Muller. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto deviate: heavy-tailed, used for idle-period workloads. *)

val geometric : t -> p:float -> int
(** Number of Bernoulli(p) failures before the first success. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_weighted : t -> (float * 'a) list -> 'a
(** [pick_weighted t l] samples proportionally to the (positive) weights.
    Requires a non-empty list with positive total weight. *)
