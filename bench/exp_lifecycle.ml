(* E42: crash-only lifecycle — a SIGKILL loop through the real
   [hlpower supervise] watchdog and its re-exec'd serve children, under
   closed-loop resilient-client load.

   The daemon is started under the watchdog with a state dir (snapshot
   spill every 0.1 s), a pid file, and a supervision journal. A warm
   pass records the known-good response bytes and the cold compute
   latency of a deliberately expensive pinned key. Then the crash loop:
   each cycle SIGKILLs the current serve child (pid from the pid file)
   and keeps hammering the warmed keys through a resilient client whose
   restart rides absorb the watchdog's restart window. The contract:

   - availability (byte-correct or typed over total) stays high;
   - zero corrupt responses, zero untyped failures — a crash mid-write
     must surface as a CRC-walled retry or a typed error, never bytes;
   - after the final restart every warmed key still answers
     byte-identically, served from the rehydrated snapshot (cached);
   - the first post-restart warm hit of the pinned key is an order of
     magnitude cheaper than its cold compute — the point of spilling;
   - the supervision journal records every crash and restart;
   - SIGTERM to the supervisor drains the child (exit 143) and unlinks
     the socket and pid file. *)

open Hlp_util

let hlpower_bin () =
  match Sys.getenv_opt "HLPOWER_BIN" with
  | Some p when Sys.file_exists p -> p
  | _ ->
      let near =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/hlpower.exe"
      in
      if Sys.file_exists near then near
      else
        failwith
          "E42: hlpower binary not found next to the bench (set HLPOWER_BIN)"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let eventually ?(timeout_s = 20.0) what pred =
  let deadline = Clock.now_s () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Clock.now_s () > deadline then
      failwith ("E42: timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let pid_of_file path =
  match int_of_string (String.trim (read_file path)) with
  | pid -> Some pid
  | exception _ -> None

(* the warmed key set the crash loop hammers; cheap symbolic estimates *)
let warm_keys =
  [ ("adder", 6, 11); ("parity", 5, 23); ("comparator", 8, 5); ("max", 6, 7) ]

(* the pinned key for the warm/cold ratio: the tight node budget trips
   symbolic into a real Monte Carlo campaign, so the cold compute is
   orders of magnitude above a cache probe *)
let pinned = ("multiplier", 10, 47)

let request_of (circuit, width, seed) ~id =
  if circuit = "multiplier" then
    Hlp_power.Service.estimate_request ~id ~engine:"bitparallel" ~seed
      ~relative_precision:0.002 ~node_limit:60 ~circuit ~width ()
  else
    Hlp_power.Service.estimate_request ~id ~engine:"bitparallel" ~seed
      ~relative_precision:0.1 ~circuit ~width ()

type verdict = Correct | Typed | Corrupt | Untyped

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let journal_event_count path name =
  if not (Sys.file_exists path) then 0
  else
    let lines = String.split_on_char '\n' (read_file path) in
    List.length
      (List.filter
         (fun l ->
           match Json.parse l with
           | Ok j -> (
               match Json.member "event" j with
               | Some (Json.Str e) -> e = name
               | _ -> false)
           | Error _ -> false)
         lines)

let e42_lifecycle ?(cycles = 5) ?(requests_per_cycle = 30) ?(seed = 0) () =
  Trace.span "bench.e42_lifecycle" @@ fun () ->
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  let dir = Filename.temp_file "hlp_e42" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "daemon.sock" in
  let pidf = Filename.concat dir "daemon.pid" in
  let jour = Filename.concat dir "supervise.jsonl" in
  let bin = hlpower_bin () in
  (* flap breaker wide open: this experiment *is* a deliberate crash
     loop, and giving up early would abort the measurement *)
  (* probes deliberately lenient: the pinned cold compute saturates the
     cores, and a tight probe timeout would wedge-kill a healthy child
     mid-measurement *)
  let argv =
    [| bin; "supervise"; "--socket"; sock; "--state-dir"; dir; "--pid-file";
       pidf; "--journal"; jour; "--probe-interval"; "0.5"; "--probe-misses";
       "8"; "--backoff-base"; "0.05"; "--backoff-cap"; "0.2"; "--flap-window";
       "5.0"; "--flap-max"; "50"; "--grace"; "5.0"; "--seed";
       string_of_int seed; "--"; "--snapshot-interval"; "0.1" |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let sup_pid = Unix.create_process bin argv Unix.stdin devnull devnull in
  Unix.close devnull;
  let supervisor_alive () =
    match Unix.waitpid [ Unix.WNOHANG ] sup_pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let drain () =
    if supervisor_alive () then begin
      (try Unix.kill sup_pid Sys.sigterm with Unix.Unix_error _ -> ());
      match Unix.waitpid [] sup_pid with
      | _, Unix.WEXITED n -> n
      | _, Unix.WSIGNALED _ -> -1
      | _, Unix.WSTOPPED _ -> -1
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> -1
    end
    else -1
  in
  match
    eventually "first child to serve" (fun () ->
        supervisor_alive () && Sys.file_exists sock && Sys.file_exists pidf);
    (* every request goes through the resilient client: it reconnects
       and retries across restart windows, which is exactly the access
       pattern the lifecycle promises to survive *)
    let client =
      Server.Client.create ~seed:(seed + 77) ~max_retries:8
        ~backoff_base_s:0.005 ~backoff_cap_s:0.1 ~connect_wait_s:0.2
        ~request_timeout_s:20.0 sock
    in
    let verdicts = ref [] in
    Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
    (* --- warm pass: record known-good bytes and the cold latency --- *)
    let expected = Hashtbl.create 8 in
    let time_request req =
      let t0 = Clock.now_s () in
      let raw = Server.Client.request client req in
      (Clock.now_s () -. t0, raw)
    in
    let parse what raw =
      match Hlp_power.Service.parse_response raw with
      | Ok r when r.Hlp_power.Service.ok -> r
      | Ok _ -> failwith ("E42: " ^ what ^ " returned a typed error")
      | Error e -> failwith ("E42: " ^ what ^ ": bad response: " ^ e)
    in
    List.iteri
      (fun i key ->
        let _, raw = time_request (request_of key ~id:i) in
        let r = parse "warm pass" raw in
        Hashtbl.replace expected key
          (Option.get (Hlp_power.Service.result_string r)))
      warm_keys;
    let cold_s, pinned_raw = time_request (request_of pinned ~id:100) in
    let pinned_bytes =
      Option.get
        (Hlp_power.Service.result_string (parse "pinned cold" pinned_raw))
    in
    (* give the spill interval one beat so the snapshot holds the keys *)
    Unix.sleepf 0.3;
    (* --- the crash loop --- *)
    let nkeys = List.length warm_keys in
    for cycle = 1 to cycles do
      let before =
        match pid_of_file pidf with
        | Some p -> p
        | None -> failwith "E42: pid file unreadable before kill"
      in
      (try Unix.kill before Sys.sigkill
       with Unix.Unix_error _ -> failwith "E42: SIGKILL failed");
      for r = 0 to requests_per_cycle - 1 do
        let key = List.nth warm_keys (r mod nkeys) in
        let id = (cycle * 1000) + r in
        let v =
          match Server.Client.request client (request_of key ~id) with
          | raw -> (
              match Hlp_power.Service.parse_response raw with
              | Error _ -> Corrupt
              | Ok pr when not pr.Hlp_power.Service.ok -> Typed
              | Ok pr -> (
                  match Hlp_power.Service.result_string pr with
                  | Some bytes when String.equal bytes (Hashtbl.find expected key)
                    ->
                      Correct
                  | _ -> Corrupt))
          | exception Err.Error _ -> Typed
          | exception _ -> Untyped
        in
        verdicts := v :: !verdicts
      done;
      (* the watchdog must have re-execed a fresh child by now *)
      eventually
        (Printf.sprintf "restart %d (new pid)" cycle)
        (fun () ->
          match pid_of_file pidf with
          | Some p -> p <> before
          | None -> false);
      (* let one spill land so the next kill still finds a snapshot *)
      Unix.sleepf 0.25
    done;
    (* --- post-loop: warm keys must answer byte-identically --- *)
    (* absorb any residual restart window on a throwaway ping so the
       warm-hit timing below measures the cache probe, not a reconnect *)
    ignore
      (parse "post-loop ping"
         (Server.Client.request client (Hlp_power.Service.ping_request ())));
    let warm_identical =
      List.for_all
        (fun key ->
          let r =
            parse "post-loop warm key"
              (Server.Client.request client (request_of key ~id:9000))
          in
          match Hlp_power.Service.result_string r with
          | Some bytes -> String.equal bytes (Hashtbl.find expected key)
          | None -> false)
        warm_keys
    in
    (* first post-restart hit of the pinned key: restored from the
       snapshot, so cached and far cheaper than the cold compute *)
    let warm_s, warm_raw = time_request (request_of pinned ~id:9100) in
    let warm_r = parse "pinned warm" warm_raw in
    let warm_pinned_ok =
      warm_r.Hlp_power.Service.cached
      && String.equal
           (Option.get (Hlp_power.Service.result_string warm_r))
           pinned_bytes
    in
    (* --- drain: SIGTERM propagates, child exits, files unlinked --- *)
    let drain_exit = drain () in
    ( !verdicts, warm_identical, warm_pinned_ok, cold_s, warm_s, drain_exit )
  with
  | exception e ->
      (* never leave a supervisor behind, whatever failed *)
      ignore (drain ());
      raise e
  | verdicts, warm_identical, warm_pinned_ok, cold_s, warm_s, drain_exit ->
      let tally v = List.length (List.filter (( = ) v) verdicts) in
      let ok_correct = tally Correct in
      let typed = tally Typed in
      let corrupt = tally Corrupt in
      let untyped = tally Untyped in
      let total = List.length verdicts in
      let availability =
        100.0 *. float_of_int (ok_correct + typed) /. float_of_int (max 1 total)
      in
      let crashes = journal_event_count jour "exited" in
      let restarts = journal_event_count jour "restarting" in
      let socket_gone = not (Sys.file_exists sock) in
      let pidf_gone = not (Sys.file_exists pidf) in
      let warm_identical = warm_identical && warm_pinned_ok in
      let warm_speedup = cold_s /. Float.max 1e-9 warm_s in
      Printf.printf
        "E42: crash-only lifecycle (%d SIGKILL/restart cycles, %d requests \
         under the crash loop):\n"
        cycles total;
      Printf.printf
        "  %d byte-correct, %d typed, %d corrupt, %d untyped; availability \
         %.2f%%\n"
        ok_correct typed corrupt untyped availability;
      Printf.printf
        "  journal: %d crashes, %d restarts; warm keys byte-identical after \
         loop: %b\n"
        crashes restarts warm_identical;
      Printf.printf
        "  pinned key: cold %.1f ms, first post-restart warm hit %.2f ms \
         (%.0fx)\n"
        (cold_s *. 1e3) (warm_s *. 1e3) warm_speedup;
      Printf.printf "  drain: supervisor exit %d, socket gone %b, \
                     pid file gone %b\n"
        drain_exit socket_gone pidf_gone;
      if crashes < cycles then
        failwith "E42: the supervision journal missed crashes";
      if not (socket_gone && pidf_gone) then
        failwith "E42: drain left the socket or pid file behind";
      let open Json in
      Obj
        [ ("experiment", Str "E42 crash-only lifecycle: SIGKILL loop under load");
          ("cycles", Int cycles);
          ("requests", Int total);
          ("ok_correct", Int ok_correct);
          ("typed", Int typed);
          ("corrupt", Int corrupt);
          ("untyped", Int untyped);
          ("availability_pct", Float availability);
          ("crashes_journaled", Int crashes);
          ("restarts_journaled", Int restarts);
          ("warm_keys_byte_identical", Bool warm_identical);
          ("cold_s", Float cold_s);
          ("first_warm_hit_s", Float warm_s);
          ("warm_speedup", Float warm_speedup);
          ("drain_exit", Int drain_exit) ]
