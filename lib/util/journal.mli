(** Crash-safe durability primitives: an append-only write-ahead journal
    and atomic snapshot files.

    Long-running estimation jobs (Monte Carlo campaigns over many design
    points) must survive process death: a SIGKILLed run resumed from its
    journal has to produce the byte-identical estimate an uninterrupted
    run would have. The journal provides the storage half of that
    contract; {!Hlp_power.Probprop} provides the replay half.

    {2 Record framing}

    Each record is framed as an 8-byte header plus the payload:
    [4-byte little-endian payload length | 4-byte little-endian CRC32 of
    the payload | payload bytes]. Appends issue one [write] per record, so
    a crash can tear at most the final record.

    {2 Recovery discipline}

    {!recover} scans from the start and accepts records until the first
    frame that does not check out — a truncated header, a length that
    runs past end-of-file, or a CRC mismatch. Everything from that point
    on is the {e torn tail}: the standard WAL rule is that a bad frame
    makes every later byte untrustworthy, so the tail is dropped (and
    reported), never partially believed. Recovery therefore {e always}
    succeeds and always yields a prefix of the appended records, no
    matter where the file was cut.

    {2 Sync discipline}

    [append] hands the record to the kernel immediately (it survives
    process death), {!sync} additionally [fsync]s (it survives power
    loss). Writers group-commit: sync every few records, and always on
    {!close}. Snapshots ({!write_atomic}) are written to a temp file,
    fsynced, and [rename]d over the target, so a concurrent reader (or a
    crash mid-write) sees either the old complete file or the new
    complete file — never a torn one. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of the whole
    string — the per-record checksum of the frame format, and of every
    socket frame ({!Server}). It runs slicing-by-8: eight table lookups
    per eight bytes on an int register, allocating only the boxed
    result. The values are the standard ones
    ([crc32 "123456789" = 0xCBF43926l]) and never change: they are on
    the wire and on disk. *)

val frame : string -> string
(** One record in the journal's wire format: [4B LE length]
    [4B LE crc32(payload)][payload]. Exposed so snapshot writers can
    build a CRC-framed record stream in memory (concatenated frames are
    exactly what {!recover} reads back) and hand it to {!write_atomic}
    in one piece — per-record CRCs turn any bit flip in a snapshot into
    a loud truncation at recovery, never silently different bytes. *)

type t
(** An open journal, positioned for appending. *)

type recovery = {
  records : string list;  (** accepted payloads, in append order *)
  valid_bytes : int;  (** bytes of well-formed prefix *)
  torn_bytes : int;  (** bytes dropped after the last valid record *)
}

val recover : string -> recovery
(** Scan [path] and return every record of its longest well-formed
    prefix. A missing file recovers as zero records. Never raises on
    torn or corrupt content (that is the point); raises [Sys_error] only
    on I/O errors such as unreadable permissions. *)

val open_ : ?resume:bool -> string -> t * string list
(** [open_ ~resume path] opens [path] for appending and returns the
    recovered records. With [resume = true] (default [false]) the file
    is first truncated to its valid prefix (discarding any torn tail) and
    the surviving records are returned; with [resume = false] the file
    is truncated to empty and the record list is [[]]. Parent directories
    must exist. *)

val append : t -> string -> unit
(** Frame and append one record with a single [write]. The data reaches
    the kernel before [append] returns (survives a SIGKILL of this
    process); call {!sync} to also survive power loss. *)

val sync : t -> unit
(** [fsync] the journal file. *)

val close : t -> unit
(** {!sync} then close the descriptor. Idempotent. *)

val path : t -> string

val appended : t -> int
(** Records appended through this handle (excludes recovered ones). *)

(** {1 Atomic snapshot files} *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to a unique temp file next to [path], [fsync] it,
    and [rename] it over [path] (then best-effort [fsync] the directory,
    so the rename itself survives power loss). A reader or a crash at
    any point sees either the previous file or the new one, never a torn
    mixture — the discipline every JSON artifact writer in the toolkit
    uses ({!Json.write}, {!Trace.write}, the CLI report emitters). *)

(** {1 Line-oriented logs}

    Newline-framed sibling of the CRC-framed journal, for logs meant to
    be read with [grep]/[jq] rather than replayed — the serve access log.
    Appends share the journal's one-[write]-per-record discipline (a
    crash tears at most the final line; line-oriented readers skip it
    naturally) and the mutex makes concurrent appends from worker domains
    atomic with respect to rotation. *)

module Lines : sig
  type t

  val open_ : ?max_bytes:int -> string -> t
  (** Open [path] for appending (created if absent, never truncated —
      reopening continues where the last process stopped). [max_bytes]
      (default 16 MiB, must be positive) bounds the live file: an append
      that would cross the bound first renames the live file to
      {!rotated}[ path] (clobbering the previous rotation), so the log
      occupies at most ~2×[max_bytes] on disk. *)

  val append : t -> string -> unit
  (** Append one line ([line] must not contain ['\n']; the newline is
      added). One [write] per line; thread-safe. *)

  val sync : t -> unit

  val close : t -> unit
  (** {!sync} then close. Idempotent. *)

  val path : t -> string

  val rotated : string -> string
  (** Where rotation puts the previous generation ([path ^ ".1"]). *)
end
