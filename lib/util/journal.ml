(* Append-only write-ahead journal with length+CRC32 framing, torn-tail
   recovery, and atomic snapshot-via-rename files. *)

(* --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), slicing-by-8 ---

   [crc_tables] is eight 256-entry tables back to back. Table 0 is the
   classic byte-at-a-time table; entry [n] of table [k] is the CRC
   register after byte [n] and then [k] zero bytes, so one step folds
   eight payload bytes with eight independent lookups. The register is a
   plain int (63 bits hold its 32), so the loop allocates nothing: only
   the int32 result is boxed. *)
let crc_tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let crc32 s =
  let t = crc_tables in
  let len = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 8 <= len do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xff))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xff))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < len do
    let b = Char.code (String.unsafe_get s !i) in
    c := Array.unsafe_get t ((!c lxor b) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* --- frame format: [len32 LE][crc32 LE][payload] --- *)

let header_bytes = 8

(* a length field beyond this is treated as frame garbage, not a record:
   recovery must never try to allocate an attacker- or corruption-sized
   buffer *)
let max_record_bytes = 1 lsl 26 (* 64 MiB *)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (crc32 payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* --- recovery --- *)

type recovery = {
  records : string list;
  valid_bytes : int;
  torn_bytes : int;
}

let recover path =
  if not (Sys.file_exists path) then { records = []; valid_bytes = 0; torn_bytes = 0 }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let records = ref [] in
    let pos = ref 0 in
    let ok = ref true in
    while !ok && !pos + header_bytes <= len do
      let plen = Int32.to_int (String.get_int32_le s !pos) in
      if plen < 0 || plen > max_record_bytes || !pos + header_bytes + plen > len then
        ok := false
      else begin
        let payload = String.sub s (!pos + header_bytes) plen in
        if crc32 payload <> String.get_int32_le s (!pos + 4) then ok := false
        else begin
          records := payload :: !records;
          pos := !pos + header_bytes + plen
        end
      end
    done;
    { records = List.rev !records; valid_bytes = !pos; torn_bytes = len - !pos }
  end

(* --- appending --- *)

type t = {
  path : string;
  fd : Unix.file_descr;
  mutable nappended : int;
  mutable closed : bool;
}

(* no Telemetry here: Journal sits below Json in the module order (Json's
   atomic writes come through here, Telemetry's JSON export goes through
   Json), so counting journal events is the caller's job *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let open_ ?(resume = false) path =
  let r = if resume then recover path else { records = []; valid_bytes = 0; torn_bytes = 0 } in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* drop the torn tail (resume) or everything (fresh) before appending:
     new frames must start exactly where the valid prefix ends *)
  Unix.ftruncate fd r.valid_bytes;
  ignore (Unix.lseek fd r.valid_bytes Unix.SEEK_SET);
  ({ path; fd; nappended = 0; closed = false }, r.records)

let append t payload =
  if t.closed then invalid_arg "Journal.append: closed";
  write_all t.fd (frame payload);
  t.nappended <- t.nappended + 1

let sync t = if not t.closed then Unix.fsync t.fd

let close t =
  if not t.closed then begin
    sync t;
    t.closed <- true;
    Unix.close t.fd
  end

let path t = t.path
let appended t = t.nappended

(* --- atomic snapshots --- *)

let fsync_dir dir =
  (* the rename is only durable once the directory entry is synced; not
     every filesystem allows opening a directory for fsync, so best-effort *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_atomic ~path contents =
  let dir = Filename.dirname path in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Hashtbl.hash (path, contents))
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd contents;
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir dir

(* --- line-oriented logs --- *)

module Lines = struct
  (* Newline-framed append log with size-bounded rotation — the access
     log's storage. Human/grep-friendly where the WAL above is CRC-framed;
     shares the one-write-per-record discipline so a crash tears at most
     the final line, which any line-oriented reader skips naturally. *)

  type t = {
    l_path : string;
    max_bytes : int;
    lock : Mutex.t;
    mutable fd : Unix.file_descr;
    mutable size : int;
    mutable closed : bool;
  }

  let rotated path = path ^ ".1"

  let open_log path =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let size = (Unix.fstat fd).Unix.st_size in
    (fd, size)

  let open_ ?(max_bytes = 16 * 1024 * 1024) path =
    if max_bytes <= 0 then invalid_arg "Journal.Lines.open_: max_bytes must be positive";
    let fd, size = open_log path in
    { l_path = path; max_bytes; lock = Mutex.create (); fd; size; closed = false }

  let append t line =
    if t.closed then invalid_arg "Journal.Lines.append: closed";
    if String.contains line '\n' then
      invalid_arg "Journal.Lines.append: embedded newline";
    let record = line ^ "\n" in
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        (* rotate before the write that would cross the bound, so the live
           file plus its one predecessor hold at most ~2*max_bytes (a
           single line longer than max_bytes still lands whole) *)
        if t.size > 0 && t.size + String.length record > t.max_bytes then begin
          Unix.close t.fd;
          Unix.rename t.l_path (rotated t.l_path);
          let fd, size = open_log t.l_path in
          t.fd <- fd;
          t.size <- size
        end;
        write_all t.fd record;
        t.size <- t.size + String.length record)

  let sync t = if not t.closed then Unix.fsync t.fd

  let close t =
    if not t.closed then begin
      sync t;
      t.closed <- true;
      Unix.close t.fd
    end

  let path t = t.l_path
end
