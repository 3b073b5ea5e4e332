(* Framed Unix-socket transport: a listener, one connection pool, and the
   request path [serve] wires onto them. Protocol schema and caches live
   in Hlp_power.Service; this layer only moves CRC-checked frames and
   applies admission control. *)

let tel_connections = Telemetry.counter "server.connections"
let tel_requests = Telemetry.counter "server.requests"
let tel_sheds = Telemetry.counter "server.sheds"
let tel_accept_errors = Telemetry.counter "server.accept_errors"
let tel_frame_errors = Telemetry.counter "server.frame_errors"
let tel_slow = Telemetry.counter "server.slow_requests"
let tel_mem_soft = Telemetry.counter "server.memory.soft_trims"
let tel_mem_hard = Telemetry.counter "server.memory.hard_sheds"
let tel_reloads = Telemetry.counter "server.knob_reloads"

(* flight-recorder histograms; per-op ones are registered on first use *)
let h_queue_wait = Telemetry.histogram "server.queue_wait_ns"

let max_frame_bytes = 64 * 1024 * 1024

(* The poll tick: the accept loop's select timeout, the receive timeout
   that lets a blocked read observe drain or a deadline, and the wait
   before a failed accept is retried. *)
let tick_s = 0.05

(* Writes to a peer that already closed must surface as EPIPE (handled
   per-connection), never as a process-killing SIGPIPE. Idempotent; done
   lazily by listen/connect so plain library linkage never touches signal
   state. *)
let ignore_sigpipe =
  lazy (if Sys.os_type = "Unix" then ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore))

(* --- frame codec: [4B LE length][4B LE crc32(payload)][payload] --- *)

let frame_error why =
  Telemetry.incr tel_frame_errors;
  raise (Err.invalid_input ~what:"server frame" why)

let rec write_all fd b off len =
  if len > 0 then begin
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    raise
      (Err.invalid_input ~what:"server frame"
         (Printf.sprintf "payload %d bytes exceeds max %d" len max_frame_bytes));
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Journal.crc32 payload);
  Bytes.blit_string payload 0 b 8 len;
  write_all fd b 0 (8 + len)

(* Read exactly [len] bytes. [at_start] distinguishes a clean peer close
   (EOF before any header byte -> None) from a torn frame (EOF mid-frame
   -> typed error). EAGAIN/EWOULDBLOCK come from SO_RCVTIMEO poll ticks:
   before a frame starts they surface as [`Timeout] so the caller can
   re-check its stop flag or deadline; once a frame has started we keep
   reading — a frame must never be split by the poll tick — unless an
   explicit [deadline] (monotonic, absolute) has passed or [stop] says the
   server is draining, in which case the stalled frame is a typed error:
   the frame boundary is lost and the connection must be dropped. A
   half-sent request was never handled, so dropping it loses nothing in
   flight. *)
let read_exact fd b len ~at_start ~deadline ~stop =
  let got = ref 0 in
  let result = ref `Ok in
  while !result = `Ok && !got < len do
    match Unix.read fd b !got (len - !got) with
    | 0 -> if at_start && !got = 0 then result := `Eof else frame_error "eof mid-frame"
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if at_start && !got = 0 then result := `Timeout
        else (
          match deadline with
          | Some d when Clock.now_s () >= d -> frame_error "timeout mid-frame"
          | _ -> if stop () then frame_error "drain mid-frame")
  done;
  !result

let read_frame_poll ?deadline ?(stop = fun () -> false) fd =
  let header = Bytes.create 8 in
  match read_exact fd header 8 ~at_start:true ~deadline ~stop with
  | `Eof -> `Eof
  | `Timeout -> `Timeout
  | `Ok ->
      let len = Int32.to_int (Bytes.get_int32_le header 0) in
      let crc = Bytes.get_int32_le header 4 in
      if len < 0 || len > max_frame_bytes then
        frame_error (Printf.sprintf "length %d out of range" len);
      let payload = Bytes.create len in
      (match read_exact fd payload len ~at_start:false ~deadline ~stop with
      | `Ok -> ()
      | `Eof | `Timeout -> assert false);
      let payload = Bytes.unsafe_to_string payload in
      if Journal.crc32 payload <> crc then frame_error "crc mismatch";
      `Frame payload

(* A bounded read requires SO_RCVTIMEO on [fd] for the poll ticks that
   let the deadline be observed while blocked before a frame starts. *)
let read_frame ?timeout_s fd =
  let deadline =
    match timeout_s with
    | None -> None
    | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
        raise
          (Err.invalid_input ~what:"Server.read_frame: timeout_s"
             "must be finite and positive")
    | Some s -> Some (Clock.now_s () +. s)
  in
  let rec go () =
    match read_frame_poll ?deadline fd with
    | `Eof -> None
    | `Frame p -> Some p
    | `Timeout -> (
        match (timeout_s, deadline) with
        | Some limit_s, Some d when Clock.now_s () >= d ->
            raise
              (Err.Error
                 (Err.Deadline_exceeded
                    { limit_s; elapsed_s = Clock.now_s () -. (d -. limit_s) }))
        | _ -> go ())
  in
  go ()

(* --- socket-path hygiene ---

   A daemon must never steal a path out from under a live daemon: probe
   the existing file with a connect before unlinking. A successful
   connect means someone is accepting there — typed refusal; a
   connection-refused socket file is the genuinely stale leftover of a
   crashed process and is safe to remove. Anything that is not a socket
   is refused outright rather than deleted. *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let prepare_path path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          close_quiet fd;
          raise
            (Err.invalid_input ~what:"Server.listen: path"
               (Printf.sprintf
                  "%s already has a live server listening (refusing to steal \
                   the socket)"
                  path))
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
        ->
          close_quiet fd;
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
          (* vanished between stat and connect: nothing left to unlink *)
          close_quiet fd
      | exception Unix.Unix_error (e, _, _) ->
          close_quiet fd;
          raise
            (Err.invalid_input ~what:"Server.listen: path"
               (Printf.sprintf "cannot probe %s: %s" path (Unix.error_message e))))
  | _ ->
      raise
        (Err.invalid_input ~what:"Server.listen: path"
           (path ^ " exists and is not a socket"))

let listen ~backlog path =
  Lazy.force ignore_sigpipe;
  prepare_path path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     close_quiet fd;
     raise
       (Err.invalid_input ~what:"Server.listen: path"
          (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))));
  Unix.listen fd backlog;
  fd

(* --- server --- *)

(* Per-request context. The transport creates it (guard + fallback rid)
   and records from it after the handler returns; the protocol layer
   annotates it (caller rid, op, cache key/outcome, typed status) so the
   access log can attribute without the transport parsing payloads. *)
type ctx = {
  guard : Guard.t;
  mutable rid : string;
  mutable op : string;
  mutable key : string;
  mutable cache : string;
  mutable status : string;
}

type handler = ctx -> string -> string

(* pid + process-wide counter: unique across the clients and servers of
   one box without coordination. Servers stamp "s" rids as the fallback
   for callers that sent none; clients stamp "c" rids. *)
let rid_counter = Atomic.make 0

let fresh_rid ?(prefix = "s") () =
  Printf.sprintf "%s%d-%d" prefix (Unix.getpid ())
    (Atomic.fetch_and_add rid_counter 1)

let retry_after_hint_s = 0.1

(* --- hot-reloadable knobs ---

   The mutable operating parameters live in one immutable record behind
   an Atomic, read at each use site (admission check, guard creation,
   slow-threshold compare, memory sampler). Reload is then a single
   Atomic.set of a fully validated record: no half-applied config, no
   torn reads, no dropped connections. *)

type knobs = {
  queue_budget : int;
  deadline_s : float option;
  slow_s : float option;
  mem_soft_bytes : int option;
  mem_hard_bytes : int option;
}

let default_knobs =
  {
    queue_budget = 64;
    deadline_s = None;
    slow_s = None;
    mem_soft_bytes = None;
    mem_hard_bytes = None;
  }

let validate_knobs k =
  if k.queue_budget < 1 then
    raise (Err.invalid_input ~what:"Server knobs: queue_budget" "must be >= 1");
  (match k.deadline_s with
  | Some d when (not (Float.is_finite d)) || d < 0.0 ->
      raise
        (Err.invalid_input ~what:"Server knobs: deadline_s"
           "must be finite and non-negative")
  | _ -> ());
  (match k.slow_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      raise
        (Err.invalid_input ~what:"Server knobs: slow_s"
           "must be finite and positive")
  | _ -> ());
  let positive what v =
    match v with
    | Some b when b < 1 ->
        raise (Err.invalid_input ~what:("Server knobs: " ^ what) "must be >= 1")
    | _ -> ()
  in
  positive "mem_soft_bytes" k.mem_soft_bytes;
  positive "mem_hard_bytes" k.mem_hard_bytes;
  match (k.mem_soft_bytes, k.mem_hard_bytes) with
  | Some s, Some h when s > h ->
      raise
        (Err.invalid_input ~what:"Server knobs: mem_soft_bytes"
           "must be <= mem_hard_bytes")
  | _ -> ()

let set_knobs cell k =
  validate_knobs k;
  Atomic.set cell k;
  Telemetry.incr tel_reloads

let overload_frame e =
  Json.to_string ~compact:true
    (Json.Obj
       [ ("id", Json.Int (-1));
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [ ("class", Json.Str (Err.class_name e));
               ("message", Json.Str (Err.to_string e));
               ("exit_code", Json.Int (Err.exit_code e));
               ("retry_after_s", Json.Float retry_after_hint_s) ] ) ])

(* --- connection pool --- *)

(* Accept on the caller's domain, hand connections to [workers] domains
   through one FIFO, drain on the way out. The pool owns every accepted
   fd: it closes the fd once [conn] returns or raises, so a torn frame, a
   vanished peer or a handler exception ends that connection, never a
   worker. *)
let pool ?on_ready ?(on_tick = ignore) ?budget ~workers ~accepted ~stop ~path
    fd conn =
  let queue = Queue.create () in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let stopping = Atomic.make false in
  let draining () = Atomic.get stopping in
  let rec worker () =
    Mutex.lock mu;
    while (not (Atomic.get stopping)) && Queue.is_empty queue do
      Condition.wait cond mu
    done;
    let entry = if Atomic.get stopping then None else Queue.take_opt queue in
    Mutex.unlock mu;
    match entry with
    | None -> ()
    | Some (c, enq_ts) ->
        (try conn ~stopping:draining c (Clock.now_s () -. enq_ts) with _ -> ());
        close_quiet c;
        worker ()
  in
  let admit c =
    Telemetry.incr accepted;
    (* the receive timeout is the drain poll tick: a worker blocked on an
       idle persistent connection re-checks [stopping] this often *)
    Unix.setsockopt_float c Unix.SO_RCVTIMEO tick_s;
    let budget = match budget with Some b -> b () | None -> max_int in
    Mutex.lock mu;
    let pending = Queue.length queue in
    if pending >= budget then begin
      Mutex.unlock mu;
      Telemetry.incr tel_sheds;
      let e = Err.Overloaded { queue = "server.accept"; budget; pending } in
      (try write_frame c (overload_frame e) with _ -> ());
      close_quiet c
    end
    else begin
      Queue.add (c, Clock.now_s ()) queue;
      Condition.signal cond;
      Mutex.unlock mu
    end
  in
  let rec accept_loop () =
    if not (stop ()) then begin
      (try on_tick () with _ -> ());
      (match Unix.select [ fd ] [] [] tick_s with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | c, _ -> admit c
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ ->
              (* EMFILE, ENFILE, ...: the peer waits in the backlog until
                 a tick later, when a closed connection may have freed
                 the resource *)
              Telemetry.incr tel_accept_errors;
              Unix.sleepf tick_s)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  let domains = List.init workers (fun _ -> Domain.spawn worker) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopping true;
      Mutex.lock mu;
      Condition.broadcast cond;
      Mutex.unlock mu;
      List.iter Domain.join domains;
      (* connections accepted but never assigned to a worker; with every
         worker joined, the queue is this domain's alone *)
      Queue.iter (fun (c, _) -> close_quiet c) queue;
      close_quiet fd;
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Option.iter (fun f -> f ()) on_ready;
      accept_loop ())

(* --- memory pressure --- *)

type memory_level = Normal | Soft | Hard

let memory_level k rss =
  match (k.mem_hard_bytes, k.mem_soft_bytes) with
  | Some h, _ when rss > 0 && rss >= h -> Hard
  | _, Some s when rss > 0 && rss >= s -> Soft
  | _ -> Normal

(* the sampler's last reading: the level workers admit against, and the
   resident set a hard shed reports *)
type memory = { level : memory_level; rss : int }

(* RSS sampler, run on the accept tick and throttled to every 0.25 s:
   classifies the current resident set against the (hot-reloadable)
   budgets, publishes the level for workers, and while at-or-above the
   soft budget invokes the relief callback — proportional cache eviction
   wired in by the service layer — so repeated samples shrink the working
   set geometrically instead of dumping it. Level rises emit trace
   instants. *)
let memory_sampler ~knobs on_memory_soft =
  let memory = Atomic.make { level = Normal; rss = 0 } in
  let last_sample = ref 0.0 in
  let sample () =
    let k = Atomic.get knobs in
    if k.mem_soft_bytes = None && k.mem_hard_bytes = None then begin
      if (Atomic.get memory).level <> Normal then
        Atomic.set memory { level = Normal; rss = 0 }
    end
    else
      let now = Clock.now_s () in
      if now -. !last_sample >= 0.25 then begin
        last_sample := now;
        let rss = Option.value ~default:0 (Memstat.rss_bytes ()) in
        let level = memory_level k rss in
        let prev = Atomic.exchange memory { level; rss } in
        if level > prev.level then
          Trace.instant
            (if level = Hard then "server.memory.hard" else "server.memory.soft")
            ~args:(fun () ->
              [ ("rss_bytes", Json.Int rss);
                ( "soft_bytes",
                  Json.Int (Option.value ~default:0 k.mem_soft_bytes) );
                ( "hard_bytes",
                  Json.Int (Option.value ~default:0 k.mem_hard_bytes) ) ]);
        if level <> Normal then begin
          Telemetry.incr tel_mem_soft;
          Option.iter (fun f -> try f () with _ -> ()) on_memory_soft
        end
      end
  in
  (memory, sample)

(* --- request path --- *)

(* The three histograms of each op, resolved once and then found by a
   string compare, without the registry lock. Handlers name a request
   only once they recognise its op, so the list holds the protocol's ops
   and "unknown". A domain that loses the race to add an op looks again;
   the registry hands both the same histograms. *)
type op_hists = {
  service_ns : Telemetry.histogram;
  bytes_in : Telemetry.histogram;
  bytes_out : Telemetry.histogram;
}

let per_op : (string * op_hists) list Atomic.t = Atomic.make []

let rec op_hists op =
  let known = Atomic.get per_op in
  match List.assoc_opt op known with
  | Some hs -> hs
  | None ->
      let h part = Telemetry.histogram ("server.op." ^ op ^ "." ^ part) in
      let hs =
        { service_ns = h "service_ns"; bytes_in = h "bytes_in";
          bytes_out = h "bytes_out" }
      in
      if Atomic.compare_and_set per_op known ((op, hs) :: known) then hs
      else op_hists op

(* One record per served request, written before the response frame so
   the log always ties out to [server.requests] even if the peer
   vanished mid-write. The whole recorder hangs off the Telemetry switch
   — disabled, a request costs this one branch. *)
let observe ~knobs ~log ctx ~queue_s ~service_s ~bytes_in ~bytes_out =
  if Telemetry.enabled () then begin
    let op = if ctx.op = "" then "unknown" else ctx.op in
    let hs = op_hists op in
    Telemetry.record h_queue_wait (queue_s *. 1e9);
    Telemetry.record hs.service_ns (service_s *. 1e9);
    Telemetry.record hs.bytes_in (float_of_int bytes_in);
    Telemetry.record hs.bytes_out (float_of_int bytes_out);
    (match (Atomic.get knobs).slow_s with
    | Some s when service_s >= s ->
        Telemetry.incr tel_slow;
        Trace.instant "server.slow_request" ~args:(fun () ->
            [ ("rid", Json.Str ctx.rid);
              ("op", Json.Str op);
              ("service_s", Json.Float service_s) ])
    | _ -> ());
    match log with
    | None -> ()
    | Some l ->
        let line =
          Json.to_string ~compact:true
            (Json.Obj
               [ ("ts", Json.Float (Unix.gettimeofday ()));
                 ("rid", Json.Str ctx.rid);
                 ("op", Json.Str op);
                 ("key", Json.Str ctx.key);
                 ("cache", Json.Str ctx.cache);
                 ("queue_s", Json.Float queue_s);
                 ("service_s", Json.Float service_s);
                 ("bytes_in", Json.Int bytes_in);
                 ("bytes_out", Json.Int bytes_out);
                 ("status", Json.Str ctx.status) ])
        in
        (* log I/O must never kill the connection it describes *)
        (try Journal.Lines.append l line with _ -> ())
  end

(* Run one request under a fresh guard and record it. An exception
   escaping the handler is recorded with its error class, then re-raised
   to end the connection. *)
let dispatch ~knobs ~log handler ~queue_s req =
  Telemetry.incr tel_requests;
  let t0 = Clock.now_s () in
  let ctx =
    {
      guard = Guard.create ?deadline_s:(Atomic.get knobs).deadline_s ();
      rid = fresh_rid ();
      op = "";
      key = "";
      cache = "";
      status = "ok";
    }
  in
  let bytes_in = String.length req + 8 in
  match Trace.span "server.request" (fun () -> handler ctx req) with
  | resp ->
      observe ~knobs ~log ctx ~queue_s ~service_s:(Clock.now_s () -. t0)
        ~bytes_in ~bytes_out:(String.length resp + 8);
      resp
  | exception e ->
      ctx.status <-
        (match e with Err.Error err -> Err.class_name err | _ -> "exception");
      observe ~knobs ~log ctx ~queue_s ~service_s:(Clock.now_s () -. t0)
        ~bytes_in ~bytes_out:0;
      raise e

(* Serve one connection until the peer closes or drain begins; the
   in-flight request always finishes — drain is between frames, and a
   frame still arriving when drain begins is dropped unhandled.
   [queue_s] (accept-to-worker wait) is charged to the connection's
   first request; later requests on the persistent connection never
   waited in the accept queue. *)
let connection ~knobs ~log ~memory handler ~stopping fd queue_s =
  let rec loop queue_s =
    match read_frame_poll ~stop:stopping fd with
    | `Eof -> ()
    | `Timeout -> if not (stopping ()) then loop 0.0
    | `Frame req ->
        (match Atomic.get memory with
        | { level = Hard; rss } ->
            (* hard memory budget: shed the request with the same typed
               overload envelope as queue pressure — a degraded answer
               the resilient client sleeps on, instead of an OOM kill
               that loses every cache. The connection stays open; the
               client decides whether to wait or leave. *)
            Telemetry.incr tel_requests;
            Telemetry.incr tel_sheds;
            Telemetry.incr tel_mem_hard;
            let budget =
              Option.value ~default:0 (Atomic.get knobs).mem_hard_bytes
            in
            let e =
              Err.Overloaded { queue = "server.memory"; budget; pending = rss }
            in
            (try write_frame fd (overload_frame e) with _ -> ())
        | _ -> write_frame fd (dispatch ~knobs ~log handler ~queue_s req));
        if not (stopping ()) then loop 0.0
  in
  loop queue_s

let serve ?max_inflight ?token ?on_ready ?access_log ?access_log_max_bytes
    ?(knobs = Atomic.make default_knobs) ?on_tick ?on_memory_soft ~path handler =
  let workers =
    match max_inflight with
    | None -> max 1 (Domain.recommended_domain_count () / 2)
    | Some w when w >= 1 -> w
    | Some _ ->
        raise (Err.invalid_input ~what:"Server.serve: max_inflight" "must be >= 1")
  in
  validate_knobs (Atomic.get knobs);
  (match access_log_max_bytes with
  | Some b when b <= 0 ->
      raise
        (Err.invalid_input ~what:"Server.serve: access_log_max_bytes"
           "must be >= 1")
  | _ -> ());
  (* the access log opens before the socket binds, so a bad path leaves no
     socket behind; it outlives every worker: closed after the pool drains *)
  let log =
    Option.map
      (fun p ->
        try Journal.Lines.open_ ?max_bytes:access_log_max_bytes p
        with Unix.Unix_error (e, _, _) ->
          raise
            (Err.invalid_input ~what:"Server.serve: access_log"
               (Printf.sprintf "cannot open %s: %s" p (Unix.error_message e))))
      access_log
  in
  let memory, sample_memory = memory_sampler ~knobs on_memory_soft in
  let stop () =
    match token with Some tk -> Guard.is_cancelled tk | None -> false
  in
  let on_tick () =
    Option.iter (fun f -> try f () with _ -> ()) on_tick;
    sample_memory ()
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun l -> try Journal.Lines.close l with _ -> ()) log)
    (fun () ->
      let fd = listen ~backlog:((Atomic.get knobs).queue_budget + workers) path in
      pool ?on_ready ~on_tick
        ~budget:(fun () -> (Atomic.get knobs).queue_budget)
        ~workers ~accepted:tel_connections ~stop ~path fd
        (connection ~knobs ~log ~memory handler))

(* --- client --- *)

type conn = { fd : Unix.file_descr }

(* Decorrelated jitter (base..3*previous, capped): consecutive sleeps
   de-synchronize callers that failed at the same instant, so a daemon
   restart is greeted by a spread of reconnects, not a lockstep herd. *)
let next_backoff rng ~base_s ~cap_s prev_s =
  Float.min cap_s (base_s +. Prng.float rng (Float.max base_s (prev_s *. 3.0)))

(* Jitter wants entropy, not reproducibility: distinct processes (and
   distinct clients in one process) must draw distinct schedules, so the
   default seed mixes the pid with the monotonic clock. Tests that need a
   fixed schedule pass ?seed. *)
let jitter_rng seed =
  Prng.create
    (match seed with
    | Some s -> s
    | None ->
        (Unix.getpid () * 0x9E3779B9)
        lxor Int64.to_int (Int64.bits_of_float (Clock.now_s ())))

let connect ?(wait_s = 5.0) ?seed path =
  Lazy.force ignore_sigpipe;
  let deadline = Clock.now_s () +. wait_s in
  let rng = jitter_rng seed in
  let rec go sleep_s =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now_s () < deadline ->
        close_quiet fd;
        let remaining = deadline -. Clock.now_s () in
        Unix.sleepf (Float.max 0.0 (Float.min sleep_s remaining));
        go (next_backoff rng ~base_s:0.005 ~cap_s:0.64 sleep_s)
    | exception Unix.Unix_error (e, _, _) ->
        close_quiet fd;
        raise
          (Err.invalid_input ~what:"Server.connect"
             (Printf.sprintf "cannot connect %s: %s" path (Unix.error_message e)))
  in
  go 0.005

let request ?timeout_s c payload =
  (* the receive timeout is the poll tick of a bounded read *)
  if Option.is_some timeout_s then
    Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO tick_s;
  (* a server that sheds the connection may close it before the request
     lands: the overload frame it wrote first is still ours to read *)
  (try write_frame c.fd payload
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  match read_frame ?timeout_s c.fd with
  | Some resp -> resp
  | None ->
      raise
        (Err.invalid_input ~what:"Server.request"
           "server closed the connection without responding")

let close c = close_quiet c.fd

(* --- resilient client --- *)

module Client = struct
  let tel_retries = Telemetry.counter "client.retries"
  let tel_reconnects = Telemetry.counter "client.reconnects"
  let tel_overload_waits = Telemetry.counter "client.overload_waits"
  let tel_exhausted = Telemetry.counter "client.exhausted"
  let tel_restart_rides = Telemetry.counter "client.restart_rides"

  type t = {
    path : string;
    max_retries : int;
    backoff_base_s : float;
    backoff_cap_s : float;
    connect_wait_s : float;
    request_timeout_s : float option;
    rng : Prng.t;
    mutable conn : conn option;
    mutable ever_connected : bool;
    mutable wire : int;  (* request frames actually written *)
    mutable logical : int;  (* request calls *)
  }

  let create ?seed ?(max_retries = 5) ?(backoff_base_s = 0.005)
      ?(backoff_cap_s = 0.64) ?(connect_wait_s = 5.0) ?request_timeout_s path =
    if max_retries < 0 then
      raise
        (Err.invalid_input ~what:"Server.Client.create: max_retries"
           "must be >= 0");
    let positive what v =
      if (not (Float.is_finite v)) || v <= 0.0 then
        raise
          (Err.invalid_input ~what:("Server.Client.create: " ^ what)
             "must be finite and positive")
    in
    positive "backoff_base_s" backoff_base_s;
    positive "backoff_cap_s" backoff_cap_s;
    Option.iter (positive "request_timeout_s") request_timeout_s;
    if (not (Float.is_finite connect_wait_s)) || connect_wait_s < 0.0 then
      raise
        (Err.invalid_input ~what:"Server.Client.create: connect_wait_s"
           "must be finite and non-negative");
    {
      path;
      max_retries;
      backoff_base_s;
      backoff_cap_s;
      connect_wait_s;
      request_timeout_s;
      rng = jitter_rng seed;
      conn = None;
      ever_connected = false;
      wire = 0;
      logical = 0;
    }

  let disconnect t =
    Option.iter close t.conn;
    t.conn <- None

  let close = disconnect
  let counts t = (t.logical, t.wire)

  let conn ?wait_s t =
    match t.conn with
    | Some c -> c
    | None ->
        let wait_s = Option.value wait_s ~default:t.connect_wait_s in
        let c = connect ~wait_s t.path in
        if t.ever_connected then Telemetry.incr tel_reconnects;
        t.ever_connected <- true;
        (* the receive timeout is the deadline poll tick of a bounded
           read_frame; only needed when requests are bounded *)
        if t.request_timeout_s <> None then
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO tick_s;
        t.conn <- Some c;
        c

  (* An overloaded shed frame carries the server's typed Overloaded in
     the error envelope plus a retry_after_s hint; the server closes the
     connection right after writing it, so honoring the hint always
     means reconnect-after-sleep. *)
  let overload_hint payload =
    match Json.parse payload with
    | Error _ -> None
    | Ok v -> (
        match (Json.member "ok" v, Json.member "error" v) with
        | Some (Json.Bool false), Some e -> (
            match Option.bind (Json.member "class" e) Json.to_str_opt with
            | Some "overloaded" ->
                Some
                  (Option.value ~default:retry_after_hint_s
                     (Option.bind (Json.member "retry_after_s" e)
                        Json.to_float_opt))
            | _ -> None)
        | _ -> None)

  let no_response =
    Err.Invalid_input
      {
        what = "Server.Client.request";
        why = "server closed the connection without responding";
      }

  let request t payload =
    t.logical <- t.logical + 1;
    (* A supervised daemon restart shows up here as connect attempts
       exhausting their wait (the socket is gone or refusing while the
       watchdog re-execs). When the request carries a deadline, that
       deadline — not max_retries — bounds how long we wait out the
       restart window: connect exhaustion before it passes re-enters the
       connect loop without charging a retry, so a restart shorter than
       the deadline is invisible to the caller. *)
    let ride_deadline =
      Option.map (fun s -> Clock.now_s () +. s) t.request_timeout_s
    in
    let connect_budget () =
      (* never exceed the per-attempt wait, never go negative *)
      Option.map
        (fun d ->
          Float.max 0.01 (Float.min t.connect_wait_s (d -. Clock.now_s ())))
        ride_deadline
    in
    let exhausted (e : Err.t) =
      Telemetry.incr tel_exhausted;
      raise (Err.Error e)
    in
    (* Every failure is retried, after the frame was fully written too:
       every protocol op is pure, so a replay is the identity (a torn
       write is dropped by the server's CRC wall). *)
    let rec attempt n sleep_s =
      let retry e =
        disconnect t;
        if n >= t.max_retries then exhausted e
        else begin
          Telemetry.incr tel_retries;
          Unix.sleepf sleep_s;
          attempt (n + 1)
            (next_backoff t.rng ~base_s:t.backoff_base_s
               ~cap_s:t.backoff_cap_s sleep_s)
        end
      in
      match conn ?wait_s:(connect_budget ()) t with
      | exception
          Err.Error (Err.Invalid_input { what = "Server.connect"; _ } as e)
        -> (
          match ride_deadline with
          | Some d when Clock.now_s () < d ->
              (* still inside the request deadline: ride the restart
                 window instead of burning a retry *)
              Telemetry.incr tel_restart_rides;
              disconnect t;
              attempt n sleep_s
          | _ -> retry e)
      | exception Err.Error e -> retry e
      | c -> (
          match
            write_frame c.fd payload;
            t.wire <- t.wire + 1
          with
          | exception Unix.Unix_error (e, _, _) ->
              retry
                (Err.Invalid_input
                   {
                     what = "Server.Client.request";
                     why = "write failed: " ^ Unix.error_message e;
                   })
          | exception Err.Error e ->
              (* the writer refused the frame: sending it again cannot help *)
              disconnect t;
              exhausted e
          | () -> (
              match read_frame ?timeout_s:t.request_timeout_s c.fd with
              | Some resp -> (
                  match overload_hint resp with
                  | Some retry_after when n < t.max_retries ->
                      Telemetry.incr tel_overload_waits;
                      disconnect t;
                      Unix.sleepf (Float.min retry_after t.backoff_cap_s);
                      Telemetry.incr tel_retries;
                      attempt (n + 1) sleep_s
                  | _ ->
                      (* retries exhausted on overload: the shed frame is
                         itself a typed answer — return it *)
                      resp)
              | None -> retry no_response
              | exception Err.Error e -> retry e
              | exception Unix.Unix_error (e, _, _) ->
                  retry
                    (Err.Invalid_input
                       {
                         what = "Server.Client.request";
                         why = "read failed: " ^ Unix.error_message e;
                       })))
    in
    attempt 0 t.backoff_base_s
end
