open Hlp_util

(* Crash-safe durability: the WAL journal's framing and recovery, the
   checkpoint/resume byte-identity contract of Probprop.monte_carlo, the
   supervised batch runner with its breaker and load shedding, and the
   sampling replay cache. The property under test throughout: kill the
   process anywhere — SIGKILL, torn tail, truncation at an arbitrary byte
   offset — and the resumed run produces the byte-identical estimate an
   uninterrupted run would have, or a fresh run if the journal is
   unusable. Never a wrong number, never a wedge. *)

module P = Hlp_power.Probprop

(* same discipline as test_robustness: leave the global registry off *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let temp name = Filename.temp_file ("hlp_durability_" ^ name) ".journal"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let bits = Int64.bits_of_float

(* byte-identity of two Monte Carlo results: estimate, trajectory, cycles *)
let check_mc_identical what (a : P.monte_carlo) (b : P.monte_carlo) =
  Alcotest.(check int64) (what ^ ": estimate bits") (bits a.estimate)
    (bits b.estimate);
  Alcotest.(check int64) (what ^ ": half-interval bits") (bits a.half_interval)
    (bits b.half_interval);
  Alcotest.(check int) (what ^ ": cycles") a.cycles_used b.cycles_used;
  Alcotest.(check int) (what ^ ": batches") a.batches b.batches;
  Alcotest.(check (list int64))
    (what ^ ": batch means bits")
    (Array.to_list (Array.map bits a.batch_means))
    (Array.to_list (Array.map bits b.batch_means))

(* --- Journal: framing, recovery, atomic snapshots --- *)

let test_journal_roundtrip () =
  let path = temp "roundtrip" in
  let records =
    [ "alpha"; ""; String.make 1000 '\x00'; "tail\nwith\nnewlines \xff" ]
  in
  let j, recovered = Journal.open_ path in
  Alcotest.(check (list string)) "fresh open is empty" [] recovered;
  List.iter (Journal.append j) records;
  Alcotest.(check int) "appended count" (List.length records) (Journal.appended j);
  Journal.close j;
  Journal.close j;
  (* idempotent *)
  let r = Journal.recover path in
  Alcotest.(check (list string)) "roundtrip" records r.Journal.records;
  Alcotest.(check int) "no torn bytes" 0 r.Journal.torn_bytes;
  (* resume keeps the records and appends after them *)
  let j2, recovered2 = Journal.open_ ~resume:true path in
  Alcotest.(check (list string)) "resume recovers" records recovered2;
  Journal.append j2 "five";
  Journal.close j2;
  Alcotest.(check (list string))
    "append after resume"
    (records @ [ "five" ])
    (Journal.recover path).Journal.records;
  (* resume:false truncates *)
  let j3, recovered3 = Journal.open_ path in
  Alcotest.(check (list string)) "truncating open" [] recovered3;
  Journal.close j3;
  Alcotest.(check int) "file emptied" 0
    (Journal.recover path).Journal.valid_bytes;
  Sys.remove path

let test_journal_missing_file () =
  let path = temp "missing" in
  Sys.remove path;
  let r = Journal.recover path in
  Alcotest.(check (list string)) "missing file: no records" [] r.Journal.records;
  Alcotest.(check int) "missing file: no bytes" 0 r.Journal.valid_bytes

let test_journal_crc_corruption () =
  let path = temp "crc" in
  let j, _ = Journal.open_ path in
  List.iter (Journal.append j) [ "first"; "second"; "third" ];
  Journal.close j;
  let raw = Bytes.of_string (read_file path) in
  (* flip a payload byte inside the second record: 8-byte frame + "first",
     8-byte frame, then payload *)
  let off = 8 + 5 + 8 + 2 in
  Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x40));
  write_file path (Bytes.to_string raw);
  let r = Journal.recover path in
  Alcotest.(check (list string))
    "corruption drops the record and everything after" [ "first" ]
    r.Journal.records;
  Alcotest.(check bool) "torn tail reported" true (r.Journal.torn_bytes > 0);
  Sys.remove path

(* --- CRC-32: on the wire and on disk, so its values never change --- *)

(* The checksum bit at a time, straight from its definition: the
   reference the slicing-by-8 table loop must equal. *)
let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc32_known_answers () =
  List.iter
    (fun (s, want) -> Alcotest.(check int32) (String.escaped s) want (Journal.crc32 s))
    [ ("", 0l);
      ("123456789", 0xCBF43926l);
      ("a", 0xE8B7BE43l);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339l);
      (String.init 256 Char.chr, 0x29058C73l) ]

(* every length from 0 to 70 (the 8-byte steps, each tail length, and
   both together) over bytes drawn from the whole 0..255 range, so half
   of them have the top bit set *)
let qcheck_crc32_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"Journal.crc32 equals the bit-at-a-time reference at every length 0..70"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      List.for_all
        (fun len ->
          let s = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
          let high = String.make len '\xff' in
          Journal.crc32 s = reference_crc32 s
          && Journal.crc32 high = reference_crc32 high)
        (List.init 71 Fun.id))

(* the WAL recovery rule as a property: cut the file at ANY byte offset and
   recovery succeeds, yielding exactly a prefix of the appended records *)
let qcheck_recover_any_truncation =
  QCheck.Test.make
    ~name:"journal recovery yields a record prefix at any cut offset" ~count:50
    QCheck.(pair (int_bound 100_000) (int_bound 1_000_000))
    (fun (seed, cut_sel) ->
      let rng = Prng.create seed in
      let nrec = 1 + Prng.int rng 6 in
      let records =
        List.init nrec (fun _ ->
            String.init (Prng.int rng 40) (fun _ ->
                Char.chr (Prng.int rng 256)))
      in
      let path = temp "qcheck_cut" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let j, _ = Journal.open_ path in
      List.iter (Journal.append j) records;
      Journal.close j;
      let raw = read_file path in
      let cut = cut_sel mod (String.length raw + 1) in
      write_file path (String.sub raw 0 cut);
      let r = Journal.recover path in
      let rec is_prefix got want =
        match (got, want) with
        | [], _ -> true
        | g :: gs, w :: ws -> g = w && is_prefix gs ws
        | _ :: _, [] -> false
      in
      is_prefix r.Journal.records records
      && r.Journal.valid_bytes + r.Journal.torn_bytes = cut
      && (cut < String.length raw || List.length r.Journal.records = nrec))

let test_write_atomic () =
  let path = temp "atomic" in
  Journal.write_atomic ~path "first contents\n";
  Alcotest.(check string) "written" "first contents\n" (read_file path);
  Journal.write_atomic ~path "second, replacing the first atomically\n";
  Alcotest.(check string) "replaced" "second, replacing the first atomically\n"
    (read_file path);
  (* no stray temp files left beside the target *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let strays =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> base && String.length f > String.length base
                             && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp droppings" [] strays;
  Sys.remove path

(* --- Probprop checkpoint/resume: the byte-identity contract --- *)

exception Crash

(* fixed-budget scalar workload: ~20 batches, deterministic and fast *)
let scalar_mc ?checkpoint () =
  P.monte_carlo ~batch:30 ~relative_precision:0.001 ~max_cycles:600 ~seed:31
    ~engine:Hlp_sim.Engine.Scalar ?checkpoint
    (Hlp_logic.Generators.multiplier_circuit 4)

let test_scalar_checkpoint_passive () =
  (* journaling on, never interrupted: must not perturb the estimate *)
  let path = temp "scalar_passive" in
  let plain = scalar_mc () in
  let journaled = scalar_mc ~checkpoint:(P.checkpoint path) () in
  check_mc_identical "journaled vs plain" plain journaled;
  (* resuming from the completed journal replays to the same answer
     without simulating anything new *)
  let resumed = scalar_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
  check_mc_identical "resume after completion" plain resumed;
  Sys.remove path

let interrupt_scalar path ~at =
  let count = ref 0 in
  let ck =
    P.checkpoint ~on_batch:(fun _ ->
        incr count;
        if !count = at then raise Crash)
      path
  in
  match scalar_mc ~checkpoint:ck () with
  | _ -> Alcotest.fail "expected the interruption to fire"
  | exception Crash -> ()

let test_scalar_resume_after_interrupt () =
  let plain = scalar_mc () in
  List.iter
    (fun at ->
      let path = temp "scalar_interrupt" in
      interrupt_scalar path ~at;
      let resumed = scalar_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
      check_mc_identical (Printf.sprintf "interrupted at batch %d" at) plain
        resumed;
      Sys.remove path)
    [ 1; 5; 12 ]

(* truncate the journal at ANY byte offset: the resumed run still produces
   the byte-identical estimate — a cut mid-record just resumes from the
   previous record (or starts fresh if the cut lands in the header) *)
let qcheck_scalar_resume_any_truncation =
  let full_journal =
    lazy
      (let path = temp "scalar_cut_src" in
       ignore (scalar_mc ~checkpoint:(P.checkpoint path) ());
       let raw = read_file path in
       Sys.remove path;
       raw)
  in
  QCheck.Test.make
    ~name:"scalar resume is byte-identical after truncation at any offset"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun cut_sel ->
      let raw = Lazy.force full_journal in
      let plain = scalar_mc () in
      let cut = cut_sel mod (String.length raw + 1) in
      let path = temp "scalar_cut" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      write_file path (String.sub raw 0 cut);
      let resumed = scalar_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
      bits resumed.P.estimate = bits plain.P.estimate
      && resumed.P.cycles_used = plain.P.cycles_used
      && resumed.P.batch_means = plain.P.batch_means)

let test_scalar_header_mismatch_self_heals () =
  with_telemetry @@ fun () ->
  let path = temp "scalar_header" in
  interrupt_scalar path ~at:4;
  (* resume under different parameters: the journal must self-heal into a
     fresh run, not wedge and not resume foreign state *)
  let fresh =
    P.monte_carlo ~batch:30 ~relative_precision:0.001 ~max_cycles:600 ~seed:99
      ~engine:Hlp_sim.Engine.Scalar
      (Hlp_logic.Generators.multiplier_circuit 4)
  in
  let healed =
    P.monte_carlo ~batch:30 ~relative_precision:0.001 ~max_cycles:600 ~seed:99
      ~engine:Hlp_sim.Engine.Scalar
      ~checkpoint:(P.checkpoint ~resume:true path)
      (Hlp_logic.Generators.multiplier_circuit 4)
  in
  check_mc_identical "healed journal = fresh run" fresh healed;
  Alcotest.(check bool) "mismatch counted" true
    (Telemetry.count (Telemetry.counter "probprop.ck_header_mismatches") >= 1);
  Sys.remove path

let test_checkpoint_validation () =
  (* sequential netlists cannot be restored from one input vector *)
  let b = Hlp_logic.Netlist.Builder.create () in
  ignore
    (Hlp_logic.Netlist.Builder.dff_feedback b (fun q ->
         Hlp_logic.Netlist.Builder.not_ b q));
  let seq = Hlp_logic.Netlist.Builder.finish b in
  let path = temp "seq" in
  (match
     P.monte_carlo ~engine:Hlp_sim.Engine.Scalar ~max_cycles:60
       ~checkpoint:(P.checkpoint path) seq
   with
  | _ -> Alcotest.fail "expected Invalid_input for sequential checkpoint"
  | exception Err.Error (Err.Invalid_input _) -> ());
  Sys.remove path

(* fixed-budget bit-parallel workload: 10 units of batch * 63 cycles *)
let units_mc ?(engine = Hlp_sim.Engine.Bitparallel) ?checkpoint () =
  P.monte_carlo ~batch:4 ~relative_precision:1e-6 ~max_cycles:(10 * 4 * 63)
    ~seed:31 ~engine ?checkpoint
    (Hlp_logic.Generators.multiplier_circuit 4)

let test_units_resume_after_interrupt () =
  (* the compiled engine computes units a pass at a time, so an
     interruption can land inside a pass: the resumed run starts its
     first pass at the first missing unit *)
  List.iter
    (fun engine ->
      let name = Hlp_sim.Engine.to_string engine in
      let plain = units_mc ~engine () in
      List.iter
        (fun at ->
          let path = temp "units_interrupt" in
          let count = ref 0 in
          let ck =
            P.checkpoint ~on_batch:(fun _ ->
                incr count;
                if !count = at then raise Crash)
              path
          in
          (match units_mc ~engine ~checkpoint:ck () with
          | _ -> Alcotest.fail "expected the interruption to fire"
          | exception Crash -> ());
          let resumed =
            units_mc ~engine ~checkpoint:(P.checkpoint ~resume:true path) ()
          in
          check_mc_identical
            (Printf.sprintf "%s units interrupted at %d" name at)
            plain resumed;
          Sys.remove path)
        [ 1; 4; 9 ];
      (* resume from a completed journal: same answer again *)
      let path = temp "units_complete" in
      ignore (units_mc ~engine ~checkpoint:(P.checkpoint path) ());
      let resumed =
        units_mc ~engine ~checkpoint:(P.checkpoint ~resume:true path) ()
      in
      check_mc_identical (name ^ " units resume after completion") plain
        resumed;
      Sys.remove path)
    [ Hlp_sim.Engine.Bitparallel; Hlp_sim.Engine.Compiled ]

(* --- the real thing: SIGKILL a child mid-run, resume in the parent ---

   OCaml 5 forbids [Unix.fork] once any domain has ever been spawned, and
   earlier suites use domains, so the child is a re-execution of this test
   binary in a special mode ({!run_child_if_requested}, dispatched from
   [test_main] before Alcotest starts) launched through [Sys.command]
   (C [system], which the runtime's fork guard does not apply to). The
   child checkpoints normally and SIGKILLs itself at an exact batch;
   on_batch fires after the journal fsync, so the kill lands on a durable
   record boundary — the torn-tail cuts are covered separately by the
   truncation property. *)

let child_kill_env = "HLP_DURABILITY_CHILD_KILL_AT"
let child_path_env = "HLP_DURABILITY_CHILD_JOURNAL"
let child_engine_env = "HLP_DURABILITY_CHILD_ENGINE"

let run_child_if_requested () =
  let nonempty v = match v with Some "" | None -> None | s -> s in
  match
    ( nonempty (Sys.getenv_opt child_kill_env),
      nonempty (Sys.getenv_opt child_path_env) )
  with
  | Some kill_at, Some path ->
      (* never fall through to Alcotest from child mode *)
      (try
         let kill_at = int_of_string kill_at in
         let ck =
           P.checkpoint ~sync_every:1
             ~on_batch:(fun k ->
               if k >= kill_at then Unix.kill (Unix.getpid ()) Sys.sigkill)
             path
         in
         (* the engine selects the checkpointing workload; the parent
            resumes the matching one (Test_kernel drives the compiled
            variant through the same child) *)
         (match nonempty (Sys.getenv_opt child_engine_env) with
         | Some "compiled" ->
             ignore (units_mc ~engine:Hlp_sim.Engine.Compiled ~checkpoint:ck ())
         | _ -> ignore (scalar_mc ~checkpoint:ck ()));
         exit 10 (* survived: the kill never fired *)
       with _ -> exit 11)
  | _ -> ()

(* Re-execute this binary as a checkpointing child that SIGKILLs itself at
   [kill_at]; returns the shell exit code (137 = killed). Shared with the
   compiled-kernel suite. *)
let sigkill_child ?(engine = "scalar") ~kill_at path =
  Unix.putenv child_kill_env (string_of_int kill_at);
  Unix.putenv child_path_env path;
  Unix.putenv child_engine_env engine;
  let code =
    Sys.command (Filename.quote Sys.executable_name ^ " >/dev/null 2>&1")
  in
  Unix.putenv child_kill_env "";
  Unix.putenv child_path_env "";
  Unix.putenv child_engine_env "";
  code

let test_sigkill_resume_byte_identical () =
  let plain = scalar_mc () in
  List.iter
    (fun kill_at ->
      let path = temp "sigkill" in
      let code = sigkill_child ~kill_at path in
      (* the shell reports a SIGKILLed child as 128 + 9 *)
      Alcotest.(check int)
        (Printf.sprintf "child killed by SIGKILL at batch %d" kill_at)
        137 code;
      let resumed = scalar_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
      check_mc_identical
        (Printf.sprintf "SIGKILL at batch %d" kill_at)
        plain resumed;
      Sys.remove path)
    [ 1; 7; 15 ]

(* --- Supervisor: pool, admission control, breaker, signals --- *)

let test_run_jobs_basic () =
  let jobs = Array.init 9 (fun i -> i) in
  let cur = Atomic.make 0 and peak = Atomic.make 0 in
  let f _i _g x =
    let c = Atomic.fetch_and_add cur 1 + 1 in
    let rec bump () =
      let p = Atomic.get peak in
      if c > p && not (Atomic.compare_and_set peak p c) then bump ()
    in
    bump ();
    Unix.sleepf 0.002;
    ignore (Atomic.fetch_and_add cur (-1));
    x * x
  in
  let results, stats = Supervisor.run_jobs ~max_inflight:2 f jobs in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v
      | Error e -> Alcotest.failf "slot %d failed: %s" i (Err.to_string e))
    results;
  Alcotest.(check int) "ran" 9 stats.Supervisor.ran;
  Alcotest.(check int) "ok" 9 stats.Supervisor.ok;
  Alcotest.(check int) "failed" 0 stats.Supervisor.failed;
  Alcotest.(check bool) "in-flight bounded" true (Atomic.get peak <= 2)

let test_run_jobs_contains_typed_errors () =
  let jobs = Array.init 6 (fun i -> i) in
  let f _i _g x =
    if x mod 2 = 1 then raise (Err.invalid_input ~what:"odd job" "boom");
    x
  in
  let results, stats = Supervisor.run_jobs ~max_inflight:3 f jobs in
  Array.iteri
    (fun i r ->
      match (i mod 2, r) with
      | 0, Ok v -> Alcotest.(check int) "even ok" i v
      | 1, Error (Err.Invalid_input _) -> ()
      | _ -> Alcotest.failf "slot %d has the wrong shape" i)
    results;
  Alcotest.(check int) "ok" 3 stats.Supervisor.ok;
  Alcotest.(check int) "failed" 3 stats.Supervisor.failed

let test_run_jobs_queue_shedding () =
  let jobs = Array.init 7 (fun i -> i) in
  let results, stats =
    Supervisor.run_jobs ~max_inflight:2 ~queue_budget:3 (fun _ _ x -> x) jobs
  in
  Array.iteri
    (fun i r ->
      match (r, i < 3) with
      | Ok v, true -> Alcotest.(check int) "admitted" i v
      | Error (Err.Overloaded { pending; _ }), false ->
          Alcotest.(check int) "overload records the demand" 7 pending
      | _ -> Alcotest.failf "slot %d has the wrong shape" i)
    results;
  Alcotest.(check int) "shed_queue" 4 stats.Supervisor.shed_queue;
  Alcotest.(check int) "ran" 3 stats.Supervisor.ran

let test_run_jobs_deadline_and_cancel_shedding () =
  (* a deadline that has already passed by the time any worker looks *)
  let results, stats =
    Supervisor.run_jobs ~max_inflight:2 ~deadline_s:1e-9
      (fun _ _ x -> x)
      (Array.init 5 (fun i -> i))
  in
  Array.iter
    (function
      | Error (Err.Deadline_exceeded _) -> ()
      | _ -> Alcotest.fail "expected every job shed on the dead deadline")
    results;
  Alcotest.(check int) "deadline sheds" 5 stats.Supervisor.shed_deadline;
  (* a token cancelled before the run starts *)
  let tok = Guard.token () in
  Guard.cancel tok;
  let results, stats =
    Supervisor.run_jobs ~max_inflight:2 ~token:tok
      (fun _ _ x -> x)
      (Array.init 4 (fun i -> i))
  in
  Array.iter
    (function
      | Error (Err.Cancelled _) -> ()
      | _ -> Alcotest.fail "expected every job shed on the cancelled token")
    results;
  Alcotest.(check int) "cancel sheds" 4 stats.Supervisor.shed_deadline;
  Alcotest.(check int) "nothing ran" 0 stats.Supervisor.ran

let test_run_jobs_contains_untyped_exceptions () =
  (* non-[Err.Error] exceptions used to escape [Err.protect], kill the
     worker domain without advancing [completed], and hang the runner's
     poll loop forever. Now they land in the slot as [Worker_failure]
     and the pool drains. *)
  let jobs = Array.init 6 (fun i -> i) in
  let f _i _g x = if x mod 2 = 1 then failwith "untyped boom" else x * 10 in
  let results, stats = Supervisor.run_jobs ~max_inflight:2 f jobs in
  Array.iteri
    (fun i r ->
      match (i mod 2, r) with
      | 0, Ok v -> Alcotest.(check int) "even ok" (i * 10) v
      | 1, Error (Err.Worker_failure { worker; why; _ }) ->
          Alcotest.(check string) "worker names the job" (Printf.sprintf "job %d" i)
            worker;
          Alcotest.(check bool) "why carries the exception" true
            (String.length why > 0)
      | _ -> Alcotest.failf "slot %d has the wrong shape" i)
    results;
  Alcotest.(check int) "failed" 3 stats.Supervisor.failed;
  Alcotest.(check int) "ok" 3 stats.Supervisor.ok

let test_run_jobs_contains_raising_tracer () =
  (* with tracing enabled, a span args thunk that raises fires inside the
     worker's span machinery — outside the old [Err.protect] scope. The
     pool must still drain and give that job a typed slot. *)
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) @@ fun () ->
  let jobs = Array.init 4 (fun i -> i) in
  let f _i _g x =
    Trace.span
      ~args:(fun () -> if x = 2 then failwith "tracer boom" else [])
      "durability.job_span"
      (fun () -> x + 100)
  in
  let results, stats = Supervisor.run_jobs ~max_inflight:2 f jobs in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error (Err.Worker_failure { worker; _ }) ->
          Alcotest.(check string) "worker names the job" "job 2" worker
      | 2, _ -> Alcotest.fail "raising tracer must surface as Worker_failure"
      | _, Ok v -> Alcotest.(check int) "other jobs unaffected" (i + 100) v
      | _, Error e -> Alcotest.failf "slot %d failed: %s" i (Err.to_string e))
    results;
  Alcotest.(check int) "one failure" 1 stats.Supervisor.failed;
  Alcotest.(check int) "three ok" 3 stats.Supervisor.ok

let test_run_jobs_validation () =
  let boom name thunk =
    match thunk () with
    | _ -> Alcotest.failf "%s: expected Invalid_input" name
    | exception Err.Error (Err.Invalid_input _) -> ()
  in
  boom "max_inflight 0" (fun () ->
      Supervisor.run_jobs ~max_inflight:0 (fun _ _ x -> x) [| 1 |]);
  boom "queue_budget 0" (fun () ->
      Supervisor.run_jobs ~queue_budget:0 (fun _ _ x -> x) [| 1 |]);
  boom "negative deadline" (fun () ->
      Supervisor.run_jobs ~deadline_s:(-1.0) (fun _ _ x -> x) [| 1 |]);
  boom "breaker threshold 0" (fun () -> Supervisor.breaker ~failure_threshold:0 "b");
  boom "breaker nan cooldown" (fun () ->
      Supervisor.breaker ~cooldown_s:Float.nan "b")

let test_breaker_state_machine () =
  let b = Supervisor.breaker ~failure_threshold:2 ~cooldown_s:0.05 "test" in
  Alcotest.(check bool) "closed allows" true (Supervisor.breaker_allows b);
  Supervisor.breaker_success b;
  (* two consecutive failures open it *)
  Alcotest.(check bool) "still allows" true (Supervisor.breaker_allows b);
  Supervisor.breaker_failure b;
  Alcotest.(check bool) "one failure stays closed" true
    (Supervisor.breaker_state b = Supervisor.Closed);
  Alcotest.(check bool) "allows again" true (Supervisor.breaker_allows b);
  Supervisor.breaker_failure b;
  Alcotest.(check bool) "threshold opens" true
    (Supervisor.breaker_state b = Supervisor.Open);
  Alcotest.(check bool) "open refuses" false (Supervisor.breaker_allows b);
  (* after the cooldown, exactly one probe gets through *)
  Unix.sleepf 0.08;
  Alcotest.(check bool) "cooldown admits the probe" true
    (Supervisor.breaker_allows b);
  Alcotest.(check bool) "half-open" true
    (Supervisor.breaker_state b = Supervisor.Half_open);
  Alcotest.(check bool) "second caller refused while probing" false
    (Supervisor.breaker_allows b);
  (* probe failure re-opens and restarts the cooldown *)
  Supervisor.breaker_failure b;
  Alcotest.(check bool) "probe failure re-opens" true
    (Supervisor.breaker_state b = Supervisor.Open);
  Alcotest.(check bool) "re-opened refuses" false (Supervisor.breaker_allows b);
  (* probe success closes *)
  Unix.sleepf 0.08;
  Alcotest.(check bool) "second probe admitted" true
    (Supervisor.breaker_allows b);
  Supervisor.breaker_success b;
  Alcotest.(check bool) "probe success closes" true
    (Supervisor.breaker_state b = Supervisor.Closed);
  Alcotest.(check bool) "closed again" true (Supervisor.breaker_allows b);
  Supervisor.breaker_success b

let test_signal_exit_codes () =
  Alcotest.(check int) "sigint" 130 (Supervisor.signal_exit_code Sys.sigint);
  Alcotest.(check int) "sigterm" 143 (Supervisor.signal_exit_code Sys.sigterm);
  Alcotest.(check int) "sighup" 129 (Supervisor.signal_exit_code Sys.sighup);
  Alcotest.(check int) "raw positive" 137 (Supervisor.signal_exit_code 9)

let test_with_graceful_stop () =
  (* no signal: result passes through, no signal reported *)
  let v, signal = Supervisor.with_graceful_stop (fun _tok -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check (option int)) "no signal" None signal;
  (* a SIGTERM mid-run flips the token and is reported, not fatal *)
  let v, signal =
    Supervisor.with_graceful_stop (fun tok ->
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        (* give the runtime a chance to deliver the signal *)
        let rec wait n =
          if n = 0 then false
          else if Guard.is_cancelled tok then true
          else begin
            Unix.sleepf 0.01;
            wait (n - 1)
          end
        in
        wait 200)
  in
  Alcotest.(check bool) "token cancelled by handler" true v;
  Alcotest.(check (option int)) "signal reported" (Some Sys.sigterm) signal

let suite =
  [
    Alcotest.test_case "journal append/recover roundtrip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal missing file recovers empty" `Quick
      test_journal_missing_file;
    Alcotest.test_case "journal CRC corruption drops the tail" `Quick
      test_journal_crc_corruption;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    QCheck_alcotest.to_alcotest qcheck_crc32_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_recover_any_truncation;
    Alcotest.test_case "write_atomic replaces whole files" `Quick
      test_write_atomic;
    Alcotest.test_case "scalar checkpoint does not perturb the estimate" `Quick
      test_scalar_checkpoint_passive;
    Alcotest.test_case "scalar resume after interrupt is byte-identical" `Quick
      test_scalar_resume_after_interrupt;
    QCheck_alcotest.to_alcotest qcheck_scalar_resume_any_truncation;
    Alcotest.test_case "header mismatch self-heals to a fresh run" `Quick
      test_scalar_header_mismatch_self_heals;
    Alcotest.test_case "checkpoint validation" `Quick test_checkpoint_validation;
    Alcotest.test_case "bit-parallel resume is byte-identical" `Quick
      test_units_resume_after_interrupt;
    Alcotest.test_case "SIGKILLed child resumes byte-identical" `Quick
      test_sigkill_resume_byte_identical;
    Alcotest.test_case "run_jobs: order, results, bounded in-flight" `Quick
      test_run_jobs_basic;
    Alcotest.test_case "run_jobs contains typed errors" `Quick
      test_run_jobs_contains_typed_errors;
    Alcotest.test_case "run_jobs contains untyped exceptions" `Quick
      test_run_jobs_contains_untyped_exceptions;
    Alcotest.test_case "run_jobs contains a raising tracer" `Quick
      test_run_jobs_contains_raising_tracer;
    Alcotest.test_case "run_jobs sheds over-budget queue" `Quick
      test_run_jobs_queue_shedding;
    Alcotest.test_case "run_jobs sheds on dead deadline / cancelled token"
      `Quick test_run_jobs_deadline_and_cancel_shedding;
    Alcotest.test_case "run_jobs and breaker validate parameters" `Quick
      test_run_jobs_validation;
    Alcotest.test_case "circuit breaker state machine" `Quick
      test_breaker_state_machine;
    Alcotest.test_case "signal exit codes" `Quick test_signal_exit_codes;
    Alcotest.test_case "with_graceful_stop reports the signal" `Quick
      test_with_graceful_stop;
  ]
