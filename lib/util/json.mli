(** One JSON representation for every machine-readable artifact the
    toolkit emits — telemetry dumps, Chrome trace exports, run-provenance
    reports, and the bench [BENCH_*.json] snapshots — plus a minimal
    parser so tests and the bench regression gate can read those
    artifacts back without an external dependency.

    The emitter mirrors what the artifacts need and nothing more: UTF-8
    strings pass through untouched (only quotes, backslashes, and control
    characters are escaped), finite floats print in shortest round-trip
    form (the fewest significant digits that parse back to the identical
    bit pattern), and non-finite floats become [null] (JSON has no
    NaN/infinity). Since the serve wire protocol carries estimates as
    frames, [parse] ∘ [to_string] is the identity on every value this
    module can emit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** Body of a JSON string literal (no surrounding quotes). *)

val float_repr : float -> string
(** Shortest decimal string that reads back (via [float_of_string]) to
    the exact same bits — tries 15, 16, then 17 significant digits.
    Integer-looking output gains a [".0"] suffix so the value survives
    [parse]'s [Int]/[Float] split. ["null"] for non-finite floats. *)

val to_string : ?compact:bool -> t -> string
(** Serialize. Default is pretty-printed with two-space indent and a
    trailing newline (the committed-artifact format); [~compact:true]
    emits a single line with no spaces (the telemetry/trace format). *)

val write : path:string -> t -> unit
(** Pretty-print to a file. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for standard JSON. Numbers with a ['.'],
    ['e'], or ['E'] parse as [Float], others as [Int] (widening to
    [Float] past native-int range); the number grammar is strict JSON —
    leading zeros ([01]), a leading [+], and OCaml numeric-literal
    underscores are rejected. [\uXXXX] escapes require exactly 4 hex
    digits and decode to UTF-8 bytes, combining surrogate pairs into
    astral code points (lone surrogates are an error). Arrays and objects
    nested more than 512 deep are an error ("nesting too deep"), so a
    hostile frame cannot grow the parser's stack. Used for reading back
    our own artifacts and for the serve wire protocol. *)

(** {1 Accessors} — tiny helpers for picking results apart in tests and
    the bench regression gate. Each returns [None] on a type or key
    mismatch. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_int_opt : t -> int option
val to_str_opt : t -> string option
val to_list_opt : t -> t list option
