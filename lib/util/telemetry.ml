type counter = { c_name : string; value : int Atomic.t }

type timer = { t_name : string; calls : int Atomic.t; nanos : int Atomic.t }

(* A ring of the newest [series_capacity] observations: a long-running
   daemon records forever, so a series must not grow with uptime. *)
let series_capacity = 4096

type series = {
  s_name : string;
  lock : Mutex.t;
  ring : float array;  (* observation [k] lives at [k mod series_capacity] *)
  mutable total : int;  (* observations ever appended *)
}

type histogram = { h_name : string; h : Hdr.t }

let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* Registries. Instruments are created at module-initialization time (and
   idempotently thereafter), so registration is rare; the lock only guards
   the tables, never the hot add/observe paths. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16
let series_tbl : (string, series) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.lock registry_lock;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.add tbl name v;
        v
  in
  Mutex.unlock registry_lock;
  v

let counter name =
  registered counters name (fun () -> { c_name = name; value = Atomic.make 0 })

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.value n)
let incr c = add c 1
let count c = Atomic.get c.value

let timer name =
  registered timers name (fun () ->
      { t_name = name; calls = Atomic.make 0; nanos = Atomic.make 0 })

(* Durations come from the monotonic clock: a wall-clock (NTP) step
   mid-span would otherwise charge a negative or wildly wrong duration. *)
let time t f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Clock.now_s () -. t0 in
        ignore (Atomic.fetch_and_add t.calls 1);
        ignore (Atomic.fetch_and_add t.nanos (int_of_float (dt *. 1e9))))
      f
  end

let timer_stats t = (Atomic.get t.calls, float_of_int (Atomic.get t.nanos) /. 1e9)

let series name =
  registered series_tbl name (fun () ->
      { s_name = name;
        lock = Mutex.create ();
        ring = Array.make series_capacity 0.0;
        total = 0 })

let observe s x =
  if Atomic.get on then begin
    Mutex.lock s.lock;
    s.ring.(s.total mod series_capacity) <- x;
    s.total <- s.total + 1;
    Mutex.unlock s.lock
  end

let histogram name =
  registered histograms name (fun () -> { h_name = name; h = Hdr.create () })

let record hg v = if Atomic.get on then Hdr.record hg.h v
let hist_snapshot hg = Hdr.snapshot hg.h
let hist_count hg = Hdr.count hg.h

let observations s =
  Mutex.lock s.lock;
  let len = min s.total series_capacity in
  let first = s.total - len in
  let a =
    Array.init len (fun k -> s.ring.((first + k) mod series_capacity))
  in
  Mutex.unlock s.lock;
  a

let observed s =
  Mutex.lock s.lock;
  let n = s.total in
  Mutex.unlock s.lock;
  n

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter
    (fun _ t ->
      Atomic.set t.calls 0;
      Atomic.set t.nanos 0)
    timers;
  Hashtbl.iter
    (fun _ s ->
      Mutex.lock s.lock;
      s.total <- 0;
      Mutex.unlock s.lock)
    series_tbl;
  Hashtbl.iter (fun _ hg -> Hdr.clear hg.h) histograms;
  Mutex.unlock registry_lock

(* --- output --- *)

let sorted tbl =
  let l = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
  l

let sorted_counters () =
  List.sort (fun a b -> compare a.c_name b.c_name) (sorted counters)

let sorted_timers () =
  List.sort (fun a b -> compare a.t_name b.t_name) (sorted timers)

let sorted_series () =
  List.sort (fun a b -> compare a.s_name b.s_name) (sorted series_tbl)

let sorted_histograms () =
  List.sort (fun a b -> compare a.h_name b.h_name) (sorted histograms)

let json_value () =
  Json.Obj
    [ ("enabled", Json.Bool (enabled ()));
      ( "counters",
        Json.Obj
          (List.map (fun c -> (c.c_name, Json.Int (count c))) (sorted_counters ())) );
      ( "timers",
        Json.Obj
          (List.map
             (fun t ->
               let calls, secs = timer_stats t in
               ( t.t_name,
                 Json.Obj [ ("calls", Json.Int calls); ("seconds", Json.Float secs) ] ))
             (sorted_timers ())) );
      ( "series",
        Json.Obj
          (List.map
             (fun s ->
               ( s.s_name,
                 Json.List
                   (Array.to_list
                      (Array.map (fun x -> Json.Float x) (observations s))) ))
             (sorted_series ())) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun hg -> (hg.h_name, Hdr.json_of_snapshot (hist_snapshot hg)))
             (sorted_histograms ())) ) ]

let to_json () = Json.to_string ~compact:true (json_value ())

let print_report ?(oc = stdout) () =
  let p fmt = Printf.fprintf oc fmt in
  let cs = List.filter (fun c -> count c <> 0) (sorted_counters ()) in
  let ts = List.filter (fun t -> fst (timer_stats t) <> 0) (sorted_timers ()) in
  let ss = List.filter (fun s -> observed s > 0) (sorted_series ()) in
  let hs = List.filter (fun hg -> hist_count hg > 0) (sorted_histograms ()) in
  p "telemetry:\n";
  if cs = [] && ts = [] && ss = [] && hs = [] then p "  (no instruments fired)\n";
  List.iter (fun c -> p "  %-32s %12d\n" c.c_name (count c)) cs;
  List.iter
    (fun t ->
      let calls, secs = timer_stats t in
      p "  %-32s %12d calls %10.3f ms total\n" t.t_name calls (secs *. 1e3))
    ts;
  List.iter
    (fun s ->
      let xs = observations s in
      let n = Array.length xs in
      p "  %-32s %12d obs   first %.4g last %.4g\n" s.s_name (observed s)
        xs.(0) xs.(n - 1))
    ss;
  List.iter
    (fun hg ->
      let s = hist_snapshot hg in
      p "  %-32s %12d obs   p50 %.4g p99 %.4g max %.4g\n" hg.h_name s.Hdr.total
        (Hdr.quantile s 0.50) (Hdr.quantile s 0.99) s.Hdr.maxv)
    hs
