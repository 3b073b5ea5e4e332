(* The estimation daemon as a child process: [hlpower serve --max-inflight
   1] on a private socket, driven over one connection in a closed loop.
   Out of process, its accept loop and single worker share no minor
   collections with the benchmark's client, and only one side runs at a
   time, so a two-core machine is never oversubscribed. *)

type t = { pid : int; out : in_channel; conn : Hlp_util.Server.conn }

(* the hlpower binary built beside this one *)
let hlpower () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "hlpower.exe")

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let start ~socket =
  let exe = hlpower () in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--max-inflight"; "1" |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  (* ready once the daemon reports that it listens *)
  let rec ready () =
    match In_channel.input_line out with
    | Some l when String.starts_with ~prefix:"hlpower serve: listening" l -> ()
    | Some _ -> ready ()
    | None -> failwith "hlpower serve exited before listening"
  in
  match
    ready ();
    Hlp_util.Server.connect socket
  with
  | conn -> { pid; out; conn }
  | exception e ->
      reap pid;
      close_in_noerr out;
      raise e

let request d payload = Hlp_util.Server.request d.conn payload
let proc d = string_of_int d.pid

(* close the connection, drain the daemon with SIGTERM, and reap it *)
let stop d =
  Hlp_util.Server.close d.conn;
  reap d.pid;
  close_in_noerr d.out

(* a started daemon after [warm] (its set-up requests); a failure stops it *)
let start_warm ~socket warm =
  let d = start ~socket in
  match warm d with
  | () -> d
  | exception e ->
      stop d;
      raise e
