(* Deterministic fault-injecting socket proxy.

   Sits between a client and the estimation daemon and mangles the byte
   stream in the ways a bad network (or a dying peer) would: delays,
   dropped chunks, mid-frame truncation, bit corruption, split writes,
   and slammed connections. Every fault decision is a pure splitmix64
   hash of (seed, draw index) — the same discipline as Faultinject — so
   a soak run is reproducible from its seed: equal seeds and equal draw
   counts give equal fault schedules, independent of scheduling.

   The proxy never interprets frames. It works on raw chunks, which is
   the point: the CRC wall and the typed-error taxonomy downstream must
   turn arbitrary byte damage into loud, typed failures, and the proxy
   must not know enough about the protocol to be accidentally gentle. *)

let tel_connections = Telemetry.counter "chaos.connections"
let tel_chunks = Telemetry.counter "chaos.chunks"
let tel_faults = Telemetry.counter "chaos.faults"
let tel_upstream_failures = Telemetry.counter "chaos.upstream_failures"

type fault = Delay | Drop | Truncate | Corrupt | Split | Slam

let all_faults = [ Delay; Drop; Truncate; Corrupt; Split; Slam ]

let fault_name = function
  | Delay -> "delay"
  | Drop -> "drop"
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"
  | Split -> "split"
  | Slam -> "slam"

let fault_of_name = function
  | "delay" -> Some Delay
  | "drop" -> Some Drop
  | "truncate" -> Some Truncate
  | "corrupt" -> Some Corrupt
  | "split" -> Some Split
  | "slam" -> Some Slam
  | _ -> None

let fault_counter f = Telemetry.counter ("chaos.fault." ^ fault_name f)

(* Pure splitmix64 finalizer of (seed, draw index): the n-th draw of a
   given proxy is the same in every run, whichever worker makes it. *)
let mix ~seed ~n =
  let z = ref (Int64.of_int ((seed * 0x9E3779B9) lxor (n * 0x85EBCA6B))) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  Int64.logxor !z (Int64.shift_right_logical !z 31)

let draw_float ~seed counter =
  let n = Atomic.fetch_and_add counter 1 in
  Int64.to_float (Int64.shift_right_logical (mix ~seed ~n) 11) *. 0x1p-53

let draw_int ~seed counter bound =
  let n = Atomic.fetch_and_add counter 1 in
  Int64.to_int (Int64.rem (Int64.shift_right_logical (mix ~seed ~n) 1) (Int64.of_int bound))

type t = { stopping : bool Atomic.t; runner : unit Domain.t }

exception Conn_done

(* Apply at most one fault to [chunk], then forward what survives to
   [dst]. Raises Conn_done when the fault kills the connection. *)
let transmit ~seed ~rate ~faults ~max_delay_s ~counter dst chunk len =
  Telemetry.incr tel_chunks;
  let fire = rate > 0.0 && draw_float ~seed counter < rate in
  if not fire then Server.write_all dst chunk 0 len
  else begin
    let fault = List.nth faults (draw_int ~seed counter (List.length faults)) in
    Telemetry.incr tel_faults;
    Telemetry.incr (fault_counter fault);
    match fault with
    | Delay ->
        Unix.sleepf (draw_float ~seed counter *. max_delay_s);
        Server.write_all dst chunk 0 len
    | Drop -> ()
    | Truncate ->
        (* forward a prefix, then slam: the receiver holds a torn frame *)
        Server.write_all dst chunk 0 (max 1 (len / 2));
        raise Conn_done
    | Corrupt ->
        let bit = draw_int ~seed counter (len * 8) in
        let byte = bit / 8 in
        Bytes.set chunk byte
          (Char.chr (Char.code (Bytes.get chunk byte) lxor (1 lsl (bit mod 8))));
        Server.write_all dst chunk 0 len
    | Split ->
        let third = max 1 (len / 3) in
        let off = ref 0 in
        while !off < len do
          let n = min third (len - !off) in
          Server.write_all dst chunk !off n;
          off := !off + n;
          if !off < len then Unix.sleepf 0.001
        done
    | Slam -> raise Conn_done
  end

(* Forward one accepted client to a fresh upstream connection until
   either side closes, a fault kills it, or the pool drains. The pool
   closes [client], and an exception here — Conn_done, or the peer
   vanishing mid-write (that is chaos working) — ends only this
   connection. An unreachable upstream closes the client at once. *)
let proxy ~seed ~rate ~faults ~max_delay_s ~counter ~upstream ~stopping client
    _queue_s =
  let up = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close up with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect up (Unix.ADDR_UNIX upstream) with
  | exception Unix.Unix_error _ -> Telemetry.incr tel_upstream_failures
  | () ->
      let buf = Bytes.create 4096 in
      let rec loop () =
        if not (stopping ()) then
          match Unix.select [ client; up ] [] [] 0.1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | [], _, _ -> loop ()
          | ready, _, _ ->
              List.iter
                (fun src ->
                  let dst = if src == client then up else client in
                  match Unix.read src buf 0 (Bytes.length buf) with
                  | 0 -> raise Conn_done
                  | n -> transmit ~seed ~rate ~faults ~max_delay_s ~counter dst buf n
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
                ready;
              loop ()
      in
      loop ()

let start ?(seed = 0) ?(rate = 0.05) ?(faults = all_faults) ?(max_delay_s = 0.05)
    ?(workers = 8) ~listen ~upstream () =
  if (not (Float.is_finite rate)) || rate < 0.0 || rate > 1.0 then
    raise (Err.invalid_input ~what:"Chaos.start: rate" "must be in [0, 1]");
  if (not (Float.is_finite max_delay_s)) || max_delay_s < 0.0 then
    raise
      (Err.invalid_input ~what:"Chaos.start: max_delay_s"
         "must be finite and non-negative");
  if workers < 1 then
    raise (Err.invalid_input ~what:"Chaos.start: workers" "must be >= 1");
  if faults = [] then
    raise (Err.invalid_input ~what:"Chaos.start: faults" "must be non-empty");
  let fd = Server.listen ~backlog:64 listen in
  let stopping = Atomic.make false in
  let counter = Atomic.make 0 in
  let runner =
    Domain.spawn (fun () ->
        Server.pool ~workers ~accepted:tel_connections
          ~stop:(fun () -> Atomic.get stopping)
          ~path:listen fd
          (proxy ~seed ~rate ~faults ~max_delay_s ~counter ~upstream))
  in
  { stopping; runner }

let stop t = if not (Atomic.exchange t.stopping true) then Domain.join t.runner
