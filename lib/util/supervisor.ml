(* Supervised batch execution: breaker + bounded pool + signal plumbing.
   Generic over the job payload — the power-estimation wiring lives in the
   batch CLI, not here. *)

let tel_jobs_run = Telemetry.counter "supervisor.jobs_run"
let tel_jobs_ok = Telemetry.counter "supervisor.jobs_ok"
let tel_jobs_failed = Telemetry.counter "supervisor.jobs_failed"
let tel_sheds = Telemetry.counter "supervisor.sheds"
let tel_deadline_sheds = Telemetry.counter "supervisor.deadline_sheds"
let tel_breaker_opens = Telemetry.counter "supervisor.breaker_opens"
let tel_breaker_half_opens = Telemetry.counter "supervisor.breaker_half_opens"
let tel_breaker_closes = Telemetry.counter "supervisor.breaker_closes"

(* --- circuit breaker --- *)

type breaker_state = Closed | Open | Half_open

type breaker = {
  b_name : string;
  threshold : int;
  cooldown_s : float;
  mu : Mutex.t;
  mutable st : breaker_state;
  mutable failures : int;  (* consecutive failures while closed *)
  mutable opened_at : float;  (* monotonic, meaningful while open *)
  mutable probing : bool;  (* half-open: the single probe is out *)
}

let breaker ?(failure_threshold = 3) ?(cooldown_s = 30.0) name =
  if failure_threshold < 1 then
    raise
      (Err.invalid_input ~what:"Supervisor.breaker: failure_threshold"
         "must be >= 1");
  if (not (Float.is_finite cooldown_s)) || cooldown_s < 0.0 then
    raise
      (Err.invalid_input ~what:"Supervisor.breaker: cooldown_s"
         "must be finite and non-negative");
  { b_name = name;
    threshold = failure_threshold;
    cooldown_s;
    mu = Mutex.create ();
    st = Closed;
    failures = 0;
    opened_at = 0.0;
    probing = false }

let locked b f =
  Mutex.lock b.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.mu) f

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let transition b st' =
  b.st <- st';
  Trace.instant
    ~args:(fun () ->
      [ ("breaker", Json.Str b.b_name); ("state", Json.Str (state_name st')) ])
    "supervisor.breaker"

let breaker_state b = locked b (fun () -> b.st)

let breaker_allows b =
  locked b @@ fun () ->
  match b.st with
  | Closed -> true
  | Half_open ->
      if b.probing then false
      else begin
        b.probing <- true;
        true
      end
  | Open ->
      if Clock.now_s () -. b.opened_at >= b.cooldown_s then begin
        Telemetry.incr tel_breaker_half_opens;
        transition b Half_open;
        b.probing <- true;
        true
      end
      else false

let breaker_success b =
  locked b @@ fun () ->
  b.failures <- 0;
  match b.st with
  | Half_open ->
      b.probing <- false;
      Telemetry.incr tel_breaker_closes;
      transition b Closed
  | Closed | Open -> ()

let open_locked b =
  b.failures <- 0;
  b.probing <- false;
  b.opened_at <- Clock.now_s ();
  Telemetry.incr tel_breaker_opens;
  transition b Open

let breaker_failure b =
  locked b @@ fun () ->
  match b.st with
  | Half_open -> open_locked b (* the probe failed: full cooldown again *)
  | Open -> ()
  | Closed ->
      b.failures <- b.failures + 1;
      if b.failures >= b.threshold then open_locked b

(* --- batch job runner --- *)

type stats = {
  ran : int;
  ok : int;
  failed : int;
  shed_queue : int;
  shed_deadline : int;
}

let run_jobs ?max_inflight ?queue_budget ?deadline_s ?token f jobs =
  let max_inflight =
    match max_inflight with
    | None -> max 1 (Domain.recommended_domain_count () / 2)
    | Some w when w >= 1 -> w
    | Some _ ->
        raise (Err.invalid_input ~what:"Supervisor.run_jobs: max_inflight" "must be >= 1")
  in
  (match queue_budget with
  | Some b when b < 1 ->
      raise (Err.invalid_input ~what:"Supervisor.run_jobs: queue_budget" "must be >= 1")
  | _ -> ());
  (match deadline_s with
  | Some d when (not (Float.is_finite d)) || d < 0.0 ->
      raise
        (Err.invalid_input ~what:"Supervisor.run_jobs: deadline_s"
           "must be finite and non-negative")
  | _ -> ());
  let n = Array.length jobs in
  let admitted = match queue_budget with Some b -> min n b | None -> n in
  let guard = Guard.create ?deadline_s ?token () in
  let results =
    Array.init n (fun i ->
        if i < admitted then Error (Err.Cancelled { where = "supervisor: not reached" })
        else
          (* load shedding at admission: the queue budget is a latency
             bound, so the excess gets a typed answer now, not a slot *)
          Error
            (Err.Overloaded
               { queue = "supervisor.queue"; budget = admitted; pending = n }))
  in
  Telemetry.add tel_sheds (n - admitted);
  if n - admitted > 0 then
    Trace.instant
      ~args:(fun () ->
        [ ("admitted", Json.Int admitted); ("shed", Json.Int (n - admitted)) ])
      "supervisor.load_shed";
  let ran = Atomic.make 0
  and ok = Atomic.make 0
  and failed = Atomic.make 0
  and shed_deadline = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let next = Atomic.make 0 in
  let shed_reason () =
    match token with
    | Some tk when Guard.is_cancelled tk ->
        Err.Cancelled { where = "supervisor.admission" }
    | _ ->
        Err.Deadline_exceeded
          { limit_s = Option.value deadline_s ~default:0.0;
            elapsed_s = Guard.elapsed_s guard }
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < admitted then begin
        (* the whole per-index body is containment scope, not just the job
           thunk: an exception from anywhere else — a [Trace.span] args
           thunk, the guard check, the stats bookkeeping — used to skip
           [Atomic.incr completed] and kill the domain silently, leaving
           the main poll loop below spinning on [completed < admitted]
           forever. Every claimed index must advance [completed]. *)
        (try
           if Guard.expired guard then begin
             results.(i) <- Error (shed_reason ());
             Atomic.incr shed_deadline;
             Telemetry.incr tel_deadline_sheds
           end
           else begin
             Atomic.incr ran;
             Telemetry.incr tel_jobs_run;
             let r =
               Trace.span
                 ~args:(fun () -> [ ("job", Json.Int i) ])
                 "supervisor.job"
                 (fun () -> Err.protect (fun () -> f i guard jobs.(i)))
             in
             (match r with
             | Ok _ ->
                 Atomic.incr ok;
                 Telemetry.incr tel_jobs_ok
             | Error _ ->
                 Atomic.incr failed;
                 Telemetry.incr tel_jobs_failed);
             results.(i) <- r
           end
         with exn ->
           results.(i) <-
             Error
               (Err.Worker_failure
                  { worker = Printf.sprintf "job %d" i;
                    attempts = 1;
                    why = Printexc.to_string exn });
           Atomic.incr failed;
           Telemetry.incr tel_jobs_failed);
        Atomic.incr completed;
        loop ()
      end
    in
    loop ()
  in
  if admitted > 0 then begin
    let w = min max_inflight admitted in
    let domains = List.init w (fun _ -> Domain.spawn worker) in
    (* poll instead of blocking straight into join: the main domain stays
       at safe points, so a SIGINT/SIGTERM handler runs promptly, cancels
       the token, and the workers drain within one job boundary *)
    while Atomic.get completed < admitted do
      Unix.sleepf 0.02
    done;
    List.iter Domain.join domains
  end;
  ( results,
    { ran = Atomic.get ran;
      ok = Atomic.get ok;
      failed = Atomic.get failed;
      shed_queue = n - admitted;
      shed_deadline = Atomic.get shed_deadline } )

(* --- watchdog ---

   Process supervision for the crash-only daemon: spawn the child
   through a caller-supplied [start] (re-exec, never bare fork — OCaml 5
   domains and fork don't mix), watch it with waitpid polls and an
   optional liveness probe, restart on crash or wedge with decorrelated
   jitter, and give up via a flap breaker when restarts cluster. The
   module stays power-agnostic: what the child is, how to probe it, and
   where lifecycle events go are all callbacks. *)

let tel_wd_starts = Telemetry.counter "watchdog.starts"
let tel_wd_restarts = Telemetry.counter "watchdog.restarts"
let tel_wd_probe_misses = Telemetry.counter "watchdog.probe_misses"
let tel_wd_gave_up = Telemetry.counter "watchdog.gave_up"

type watchdog_event =
  | Wd_started of int  (* child pid *)
  | Wd_healthy of int  (* first successful probe after a start *)
  | Wd_probe_timeout of int * int  (* pid, consecutive misses *)
  | Wd_exited of int * string  (* pid, "exit N" / "signal NAME" *)
  | Wd_restarting of float  (* backoff sleep before next start *)
  | Wd_gave_up of int  (* restarts inside the flap window *)
  | Wd_draining of int  (* pid being sent the propagated SIGTERM *)
  | Wd_drained of int * string  (* pid, final status *)

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sighup then "SIGHUP"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigquit then "SIGQUIT"
  else Printf.sprintf "signal#%d" s

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> "signal " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped " ^ signal_name s

let watchdog_event_json ev =
  let obj kind fields =
    Json.Obj
      (("ts", Json.Float (Unix.gettimeofday ()))
      :: ("event", Json.Str kind)
      :: fields)
  in
  match ev with
  | Wd_started pid -> obj "started" [ ("pid", Json.Int pid) ]
  | Wd_healthy pid -> obj "healthy" [ ("pid", Json.Int pid) ]
  | Wd_probe_timeout (pid, misses) ->
      obj "probe-timeout" [ ("pid", Json.Int pid); ("misses", Json.Int misses) ]
  | Wd_exited (pid, st) ->
      obj "exited" [ ("pid", Json.Int pid); ("status", Json.Str st) ]
  | Wd_restarting sleep_s ->
      obj "restarting" [ ("backoff_s", Json.Float sleep_s) ]
  | Wd_gave_up n -> obj "gave-up" [ ("restarts_in_window", Json.Int n) ]
  | Wd_draining pid -> obj "draining" [ ("pid", Json.Int pid) ]
  | Wd_drained (pid, st) ->
      obj "drained" [ ("pid", Json.Int pid); ("status", Json.Str st) ]

(* decorrelated jitter, same discipline as the client reconnect path *)
let wd_backoff rng ~base_s ~cap_s prev_s =
  Float.min cap_s (base_s +. Prng.float rng (Float.max base_s (prev_s *. 3.0)))

let watch ?probe ?(probe_every_s = 0.5) ?(probe_misses = 4)
    ?(backoff_base_s = 0.1) ?(backoff_cap_s = 5.0) ?(flap_window_s = 30.0)
    ?(flap_max = 5) ?(grace_s = 5.0) ?seed ?(on_event = fun _ -> ()) ?token
    ~start () =
  let positive what v =
    if (not (Float.is_finite v)) || v <= 0.0 then
      raise
        (Err.invalid_input ~what:("Supervisor.watch: " ^ what)
           "must be finite and positive")
  in
  positive "probe_every_s" probe_every_s;
  positive "backoff_base_s" backoff_base_s;
  positive "backoff_cap_s" backoff_cap_s;
  positive "flap_window_s" flap_window_s;
  positive "grace_s" grace_s;
  if probe_misses < 1 then
    raise
      (Err.invalid_input ~what:"Supervisor.watch: probe_misses" "must be >= 1");
  if flap_max < 1 then
    raise (Err.invalid_input ~what:"Supervisor.watch: flap_max" "must be >= 1");
  let rng =
    Prng.create
      (match seed with
      | Some s -> s
      | None ->
          (Unix.getpid () * 0x9E3779B9)
          lxor Int64.to_int (Int64.bits_of_float (Clock.now_s ())))
  in
  let emit ev = try on_event ev with _ -> () in
  let stop_requested () =
    match token with Some tk -> Guard.is_cancelled tk | None -> false
  in
  let kill_quiet pid s = try Unix.kill pid s with Unix.Unix_error _ -> () in
  (* SIGTERM, then SIGKILL after the grace period; reaps and returns the
     final status either way *)
  let terminate pid =
    kill_quiet pid Sys.sigterm;
    let deadline = Clock.now_s () +. grace_s in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Clock.now_s () >= deadline then begin
            kill_quiet pid Sys.sigkill;
            let _, st = Unix.waitpid [] pid in
            status_string st
          end
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
      | _, st -> status_string st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> "already reaped"
    in
    wait ()
  in
  (* restart timestamps inside the sliding flap window *)
  let restarts = ref [] in
  let flap_trips now =
    restarts := now :: List.filter (fun t -> now -. t < flap_window_s) !restarts;
    List.length !restarts > flap_max
  in
  let rec supervise sleep_s =
    if stop_requested () then `Drained
    else begin
      let pid = start () in
      Telemetry.incr tel_wd_starts;
      emit (Wd_started pid);
      let last_probe = ref (Clock.now_s ()) in
      let misses = ref 0 in
      let healthy = ref false in
      (* watch one incarnation until it exits, wedges, or drain begins *)
      let rec tick () =
        if stop_requested () then begin
          emit (Wd_draining pid);
          let st = terminate pid in
          emit (Wd_drained (pid, st));
          `Drained
        end
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> (
              match probe with
              | Some p when Clock.now_s () -. !last_probe >= probe_every_s -> (
                  last_probe := Clock.now_s ();
                  match (try p () with _ -> false) with
                  | true ->
                      if not !healthy then begin
                        healthy := true;
                        emit (Wd_healthy pid)
                      end;
                      misses := 0;
                      pause ()
                  | false ->
                      incr misses;
                      Telemetry.incr tel_wd_probe_misses;
                      if !misses >= probe_misses then begin
                        emit (Wd_probe_timeout (pid, !misses));
                        (* a wedged child is a crash we must induce *)
                        let st = terminate pid in
                        crash ("wedged, " ^ st)
                      end
                      else pause ())
              | _ -> pause ())
          | _, st -> crash (status_string st)
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              crash "already reaped"
      and pause () =
        Unix.sleepf 0.05;
        tick ()
      and crash status =
        emit (Wd_exited (pid, status));
        let now = Clock.now_s () in
        if flap_trips now then begin
          Telemetry.incr tel_wd_gave_up;
          emit (Wd_gave_up (List.length !restarts));
          `Gave_up (List.length !restarts)
        end
        else begin
          let sleep_s = wd_backoff rng ~base_s:backoff_base_s ~cap_s:backoff_cap_s sleep_s in
          Telemetry.incr tel_wd_restarts;
          emit (Wd_restarting sleep_s);
          (* the backoff sleep still honours drain *)
          let deadline = now +. sleep_s in
          let rec nap () =
            if stop_requested () then ()
            else if Clock.now_s () < deadline then begin
              Unix.sleepf 0.02;
              nap ()
            end
          in
          nap ();
          `Restart sleep_s
        end
      in
      match tick () with
      | `Drained -> `Drained
      | `Gave_up n -> `Gave_up n
      | `Restart sleep_s -> supervise sleep_s
    end
  in
  supervise backoff_base_s

(* --- signals --- *)

let with_graceful_stop ?signals f =
  let signals = match signals with Some s -> s | None -> [ Sys.sigint; Sys.sigterm ] in
  let token = Guard.token ~name:"supervisor.signal" () in
  let fired = Atomic.make 0 in
  (* the handler only flips the token: journal flushing and report writing
     happen on the normal exit path, after the pool drains, so nothing is
     ever written from inside a handler *)
  let handle s =
    Atomic.set fired s;
    Guard.cancel token
  in
  let previous =
    List.map (fun s -> (s, Sys.signal s (Sys.Signal_handle handle))) signals
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, h) -> Sys.set_signal s h) previous)
    (fun () ->
      let r = f token in
      (r, match Atomic.get fired with 0 -> None | s -> Some s))

let signal_exit_code s =
  if s = Sys.sigint then 130
  else if s = Sys.sigterm then 143
  else if s = Sys.sighup then 129
  else if s = Sys.sigquit then 131
  else if s > 0 then 128 + s (* a raw OS signal number *)
  else 128
