(* hlpower: command-line front end to the toolkit.

   Subcommands:
     estimate    power-estimate a generated RT module three ways
     batch       supervised campaign of estimate jobs with checkpoint/resume
     serve       persistent estimation daemon on a Unix-domain socket
     client      resilient framed-protocol client for serve; doubles as loadgen
     chaos-proxy fault-injecting socket proxy for resilience soaks
     bus-encode  compare bus encodings on a generated address/data trace
     pm-sim      simulate system-level shutdown policies
     fsm-encode  low-power state encoding of a benchmark machine
     info        inventory of the library *)

open Cmdliner

(* Invalid argument values are rejected by Cmdliner converters (usage +
   standard exit code 124), never by [failwith] backtraces. Failures the
   libraries degrade into (budget trips, deadlines, worker failures, bad
   data) arrive as typed Hlp_util.Err errors and map to stable exit codes
   per class (65-69, see Err.exit_code), so scripts can tell "bad input"
   from "budget too small" without parsing stderr. *)

let with_typed_errors run =
  match Hlp_util.Err.protect run with
  | Ok code -> code
  | Error e ->
      Printf.eprintf "hlpower: error [%s]: %s\n"
        (Hlp_util.Err.class_name e)
        (Hlp_util.Err.to_string e);
      Hlp_util.Err.exit_code e

let stream_enum =
  [ ("uniform", fun rng ~width ~n -> Hlp_sim.Streams.uniform rng ~width ~n);
    ("walk", fun rng ~width ~n -> Hlp_sim.Streams.gaussian_walk rng ~width ~sigma:20.0 ~n);
    ("correlated",
     fun rng ~width ~n -> Hlp_sim.Streams.correlated_bits rng ~width ~p:0.5 ~rho:0.7 ~n);
    ("biased", fun rng ~width ~n -> Hlp_sim.Streams.biased_bits rng ~width ~p:0.25 ~n) ]

let enum_doc alts = String.concat "|" (List.map fst alts)

(* An option over a table of named values. [Arg.enum] prints the default
   by comparing values with [=], which raises on functions and kills
   --help, so the option enumerates the names and looks the value up once
   parsed. *)
let named_opt alts ~default doc =
  let names = List.map (fun (name, _) -> (name, name)) alts in
  Term.(
    const (fun name -> List.assoc name alts)
    $ Arg.(value & opt (enum names) default & doc))

let engine_doc =
  String.concat "|" (List.map Hlp_sim.Engine.to_string Hlp_sim.Engine.all)

(* every name Engine.of_string accepts, aliases included, for --engine and
   the batch jobs file alike *)
let engine_conv =
  let parse s =
    match Hlp_sim.Engine.of_string s with
    | Some e -> Ok e
    | None ->
        Error (`Msg (Printf.sprintf "unknown engine %S (expected %s)" s engine_doc))
  in
  Arg.conv
    (parse, fun ppf e -> Format.pp_print_string ppf (Hlp_sim.Engine.to_string e))

(* a positive-int converter with a lower bound, for --cycles and friends *)
let int_at_least lower what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lower -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be >= %d" what lower))
    | None -> Error (`Msg (Printf.sprintf "invalid %s: %S (expected an integer)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Satellite to the supervisor work: flag domains that depend on each
   other (or on the Err taxonomy) are validated in the command body with
   typed Invalid_input — stable exit 65 — instead of Cmdliner converter
   errors, so scripted callers get one code for every bad-value path. *)
let require_positive_float ~flag v =
  match v with
  | Some d when (not (Float.is_finite d)) || d <= 0.0 ->
      raise
        (Hlp_util.Err.invalid_input ~what:flag
           "must be a positive, finite number of seconds")
  | _ -> v

let require_at_least ~flag lower v =
  match v with
  | Some n when n < lower ->
      raise
        (Hlp_util.Err.invalid_input ~what:flag
           (Printf.sprintf "must be >= %d" lower))
  | _ -> v

(* An output path's directory must be writable when its command starts:
   a run must not do its work and then die on the write. *)
let require_output_dir ~flag path =
  Option.iter
    (fun path ->
      let dir = Filename.dirname path in
      match Unix.access dir [ Unix.W_OK ] with
      | () when Sys.is_directory dir -> ()
      | () | (exception Unix.Unix_error _) ->
          raise
            (Hlp_util.Err.invalid_input ~what:flag
               (dir ^ " is not a writable directory")))
    path

(* --- flags shared by several subcommands --- *)

(* --circuit over the daemon's table; the name stays with the generator
   for the Verilog module name *)
let circuit ~default =
  let circuits = Hlp_power.Service.circuits in
  named_opt
    (List.map (fun (name, gen) -> (name, (name, gen))) circuits)
    ~default
    (Arg.info [ "circuit" ] ~docv:"CIRCUIT" ~doc:(enum_doc circuits))

let width =
  Arg.(value & opt (int_at_least 1 "--width") 8
       & info [ "width" ] ~doc:"operand bit width")

let max_retries =
  (* validated in the command body (typed Invalid_input, exit 65), not by
     the converter, so zero/negative behaves like every bad value *)
  Arg.(value & opt (some int) None
       & info [ "max-retries" ] ~docv:"N"
           ~doc:
             "retries per failed Monte Carlo unit before the engine \
              degrades (default 2, exponential backoff); must be >= 1")

(* --telemetry-json FILE and --trace FILE, for estimate, batch and serve *)
let outputs =
  let telemetry_json =
    Arg.(value & opt (some string) None
         & info [ "telemetry-json" ] ~docv:"FILE"
             ~doc:
               "enable the telemetry layer and write it to $(docv) as JSON \
                when the run ends (the daemon's cache counters live under \
                server.*)")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "enable span tracing and write a Chrome trace-event JSON to \
                $(docv) when the run ends (load in Perfetto or \
                chrome://tracing)")
  in
  Term.(const (fun t tr -> (t, tr)) $ telemetry_json $ trace_out)

(* Enable what [outputs] names (telemetry also when [telemetry]), run,
   then write the files; a typed error skips the writes. The telemetry
   file is atomic like every other JSON artifact: a reader or a crash
   never sees a torn file. *)
let with_outputs ~telemetry (telemetry_json, trace_out) run =
  require_output_dir ~flag:"--telemetry-json" telemetry_json;
  require_output_dir ~flag:"--trace" trace_out;
  if telemetry || telemetry_json <> None then Hlp_util.Telemetry.enable ();
  if trace_out <> None then Hlp_util.Trace.enable ();
  let code = run () in
  Option.iter
    (fun path ->
      Hlp_util.Journal.write_atomic ~path (Hlp_util.Telemetry.to_json () ^ "\n");
      Printf.printf "telemetry written to %s\n" path)
    telemetry_json;
  Option.iter
    (fun path ->
      Hlp_util.Trace.write ~path;
      Printf.printf "trace written to %s (%d events, %d dropped)\n" path
        (Hlp_util.Trace.event_count ())
        (Hlp_util.Trace.dropped ()))
    trace_out;
  code

(* --- estimate --- *)

let estimate (_, circuit) width cycles stream seed engine profile outputs
    deadline node_limit max_retries attribution run_report =
  with_typed_errors @@ fun () ->
  let deadline = require_positive_float ~flag:"--deadline" deadline in
  let max_retries = require_at_least ~flag:"--max-retries" 1 max_retries in
  require_output_dir ~flag:"--run-report" run_report;
  with_outputs ~telemetry:(profile || run_report <> None) outputs @@ fun () ->
  let guard = Hlp_util.Guard.create ?deadline_s:deadline () in
  let net = circuit width in
  Printf.printf "circuit: %s\n" (Hlp_logic.Netlist.stats_string net);
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let rng = Hlp_util.Prng.create seed in
  let trace = stream rng ~width:nin ~n:cycles in
  let vector i = Array.init nin (fun b -> Hlp_util.Bits.bit trace.(i) b) in
  let r =
    match
      Hlp_sim.Parsim.replay_guarded ~guard ~engine net ~vector ~n:cycles
    with
    | Ok d ->
        if d.Hlp_sim.Parsim.fallbacks > 0 then
          Printf.printf "note: replay degraded %s -> %s (%d fallback%s)\n"
            (Hlp_sim.Engine.to_string engine)
            (Hlp_sim.Engine.to_string d.Hlp_sim.Parsim.engine_used)
            d.Hlp_sim.Parsim.fallbacks
            (if d.Hlp_sim.Parsim.fallbacks = 1 then "" else "s");
        d.Hlp_sim.Parsim.value
    | Error e -> raise (Hlp_util.Err.Error e)
  in
  let reference = Hlp_util.Stats.mean r.Hlp_sim.Parsim.transition_caps in
  Printf.printf "gate-level reference:   %10.1f cap units/cycle  [%s engine]\n"
    reference
    (Hlp_sim.Engine.to_string engine);
  List.iter
    (fun (name, model) ->
      let est = Hlp_power.Entropy.estimate_netlist ~model net ~input_trace:trace in
      Printf.printf "%-22s %10.1f cap units/cycle\n" name
        (est.Hlp_power.Entropy.c_tot *. est.Hlp_power.Entropy.e_avg))
    [ ("entropy (Marculescu):", Hlp_power.Entropy.Marculescu);
      ("entropy (Nemani-Najm):", Hlp_power.Entropy.Nemani_najm) ];
  let ces =
    Hlp_power.Complexity.ces_switched_capacitance_estimate Hlp_power.Complexity.ces_default net
  in
  Printf.printf "%-22s %10.1f cap units/cycle\n" "gate-equivalents (CES):" ces;
  let mc = Hlp_power.Probprop.monte_carlo ~seed ~engine ?max_retries ~guard net in
  Printf.printf
    "monte carlo (t-CI):     %10.1f cap units/cycle  (+/- %.1f, %d batches, %d cycles)\n"
    mc.Hlp_power.Probprop.estimate mc.Hlp_power.Probprop.half_interval
    mc.Hlp_power.Probprop.batches mc.Hlp_power.Probprop.cycles_used;
  (* the guarded path: exact symbolic under the node budget, Monte Carlo
     sampling as the degradation target on blowup *)
  (match
     Hlp_power.Probprop.estimate_guarded ~guard ?node_limit ~seed ~engine
       ?max_retries net
   with
  | Ok g ->
      let how =
        match g.Hlp_power.Probprop.estimator with
        | Hlp_power.Probprop.Symbolic -> "symbolic (exact BDD)"
        | Hlp_power.Probprop.Monte_carlo mc ->
            Printf.sprintf "sampled%s on %s engine, +/- %.1f"
              (if g.Hlp_power.Probprop.symbolic_fallback then
                 " after BDD budget trip"
               else "")
              (match g.Hlp_power.Probprop.engine_used with
              | Some e -> Hlp_sim.Engine.to_string e
              | None -> "?")
              mc.Hlp_power.Probprop.half_interval
      in
      Printf.printf "guarded estimate:       %10.1f cap units/cycle  [%s]\n"
        g.Hlp_power.Probprop.capacitance how;
      (match run_report with
      | Some path ->
          (* provenance of the guarded estimate plus the full telemetry
             registry: everything needed to say how the number was made *)
          let report =
            Hlp_util.Json.Obj
              [ ("command", Hlp_util.Json.Str "estimate");
                ("cycles", Hlp_util.Json.Int cycles);
                ("seed", Hlp_util.Json.Int seed);
                ("requested_engine",
                 Hlp_util.Json.Str (Hlp_sim.Engine.to_string engine));
                ("gate_level_reference", Hlp_util.Json.Float reference);
                ("guarded_estimate",
                 Hlp_util.Json.Float g.Hlp_power.Probprop.capacitance);
                ("provenance",
                 Hlp_power.Probprop.provenance_json
                   g.Hlp_power.Probprop.provenance);
                ("telemetry", Hlp_util.Telemetry.json_value ()) ]
          in
          Hlp_util.Json.write ~path report;
          Printf.printf "run report written to %s\n" path
      | None -> ())
  | Error e -> raise (Hlp_util.Err.Error e));
  (match attribution with
  | Some k ->
      (* scalar re-replay of the same trace: the per-node charge model is
         the reference simulator's own, so the rollup partitions exactly
         the reference's total switched capacitance *)
      let a = Hlp_power.Attribution.profile net ~vector ~n:cycles in
      print_newline ();
      print_string (Hlp_power.Attribution.report ~top_k:k a)
  | None -> ());
  if profile then begin
    print_newline ();
    Hlp_util.Telemetry.print_report ()
  end;
  0

let estimate_cmd =
  let cycles =
    Arg.(value & opt (int_at_least 2 "--cycles") 2000
         & info [ "cycles" ]
             ~doc:"simulation cycles (>= 2: the reference averages over trace transitions)")
  in
  let stream =
    named_opt stream_enum ~default:"uniform"
      (Arg.info [ "stream" ] ~docv:"STREAM" ~doc:(enum_doc stream_enum))
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  let engine =
    Arg.(value & opt engine_conv Hlp_sim.Engine.Bitparallel
         & info [ "engine" ]
             ~docv:"ENGINE"
             ~doc:
               (engine_doc
               ^ " — simulation engine for the gate-level reference (bit \
                  engines pack 63 trace cycles per word-wide step; \
                  estimates agree to round-off)"))
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:
               "enable the telemetry layer and print per-engine counters, \
                timers, and Monte Carlo convergence series after the run")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "wall-clock budget for the whole run; a trip exits with the \
                stable deadline-exceeded code (67) instead of a late answer")
  in
  let node_limit =
    Arg.(value & opt (some (int_at_least 1 "--bdd-node-limit")) None
         & info [ "bdd-node-limit" ] ~docv:"NODES"
             ~doc:
               "BDD node budget for the exact symbolic estimator (default \
                200000); a blowup degrades to Monte Carlo sampling instead \
                of exhausting memory")
  in
  let attribution =
    Arg.(value & opt (some (int_at_least 1 "--attribution")) None
         & info [ "attribution" ] ~docv:"K"
             ~doc:
               "print the $(docv) hottest gates by switched capacitance and \
                the per-group rollup (scalar reference replay)")
  in
  let run_report =
    Arg.(value & opt (some string) None
         & info [ "run-report" ] ~docv:"FILE"
             ~doc:
               "write a JSON run-provenance record (engine used, fallback \
                hops, guard trips, fault counters, seed, convergence tail, \
                wall time) to $(docv); implies telemetry")
  in
  Cmd.v (Cmd.info "estimate" ~doc:"Power-estimate a generated RT module")
    Term.(const estimate $ circuit ~default:"multiplier" $ width $ cycles
          $ stream $ seed $ engine $ profile $ outputs $ deadline $ node_limit
          $ max_retries $ attribution $ run_report)

(* --- batch: supervised estimation campaigns --- *)

(* One estimation job parsed from the jobs.json array. *)
type batch_job = {
  bj_name : string;
  bj_net : Hlp_logic.Netlist.t;
  bj_seed : int;
  bj_engine : Hlp_sim.Engine.t;
  bj_rp : float option;
  bj_max_cycles : int option;
  bj_batch : int option;
  bj_node_limit : int option;
}

let parse_jobs_file path =
  let bad why =
    raise (Hlp_util.Err.invalid_input ~what:("batch jobs file " ^ path) why)
  in
  let contents =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> bad e
  in
  let jobs =
    match Hlp_util.Json.parse contents with
    | Error e -> bad ("not valid JSON: " ^ e)
    | Ok v -> (
        match Hlp_util.Json.to_list_opt v with
        | Some l -> l
        | None -> bad "top level must be an array of job objects")
  in
  if jobs = [] then bad "no jobs";
  Array.of_list
    (List.mapi
       (fun i v ->
         let where fld = Printf.sprintf "job %d: %S" i fld in
         let str fld d =
           match Hlp_util.Json.member fld v with
           | None -> d
           | Some x -> (
               match Hlp_util.Json.to_str_opt x with
               | Some s -> s
               | None -> bad (where fld ^ " must be a string"))
         in
         let int_ fld d =
           match Hlp_util.Json.member fld v with
           | None -> d
           | Some x -> (
               match Hlp_util.Json.to_int_opt x with
               | Some n -> Some n
               | None -> bad (where fld ^ " must be an integer"))
         in
         let float_ fld =
           match Hlp_util.Json.member fld v with
           | None -> None
           | Some x -> (
               match Hlp_util.Json.to_float_opt x with
               | Some f -> Some f
               | None -> bad (where fld ^ " must be a number"))
         in
         let circuit_name = str "circuit" "multiplier" in
         let circuit =
           match List.assoc_opt circuit_name Hlp_power.Service.circuits with
           | Some c -> c
           | None ->
               bad
                 (where "circuit" ^ " unknown: " ^ circuit_name ^ " (expected "
                 ^ enum_doc Hlp_power.Service.circuits ^ ")")
         in
         let engine_name = str "engine" "compiled" in
         let engine =
           match Arg.conv_parser engine_conv engine_name with
           | Ok e -> e
           | Error (`Msg m) -> bad (where "engine" ^ ": " ^ m)
         in
         let width = Option.value (int_ "width" (Some 8)) ~default:8 in
         if width < 1 then bad (where "width" ^ " must be >= 1");
         {
           bj_name =
             str "name" (Printf.sprintf "job%d-%s%d" i circuit_name width);
           bj_net = circuit width;
           bj_seed = Option.value (int_ "seed" (Some (47 + i))) ~default:(47 + i);
           bj_engine = engine;
           bj_rp = float_ "relative_precision";
           bj_max_cycles = int_ "max_cycles" None;
           bj_batch = int_ "batch" None;
           bj_node_limit = int_ "node_limit" None;
         })
       jobs)

let batch jobs_file checkpoint_dir resume max_inflight queue_budget deadline
    max_retries outputs report =
  with_typed_errors @@ fun () ->
  let deadline = require_positive_float ~flag:"--deadline" deadline in
  let max_retries = require_at_least ~flag:"--max-retries" 1 max_retries in
  let max_inflight = require_at_least ~flag:"--max-inflight" 1 max_inflight in
  let queue_budget = require_at_least ~flag:"--queue-budget" 1 queue_budget in
  require_output_dir ~flag:"--report" report;
  require_output_dir ~flag:"--checkpoint-dir" checkpoint_dir;
  with_outputs ~telemetry:(report <> None) outputs @@ fun () ->
  let jobs = parse_jobs_file jobs_file in
  (match checkpoint_dir with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise
          (Hlp_util.Err.invalid_input ~what:"--checkpoint-dir"
             (dir ^ " exists and is not a directory"))
  | None -> ());
  (* a job's answer, built once for its result file and the summary *)
  let run_job _idx guard job =
    let ck =
      Option.map
        (fun dir ->
          Hlp_power.Probprop.checkpoint ~resume
            (Filename.concat dir (job.bj_name ^ ".journal")))
        checkpoint_dir
    in
    match
      Hlp_power.Probprop.estimate_guarded ~guard ?checkpoint:ck
        ?node_limit:job.bj_node_limit ?batch:job.bj_batch
        ?relative_precision:job.bj_rp ?max_cycles:job.bj_max_cycles
        ~seed:job.bj_seed ~engine:job.bj_engine ?max_retries job.bj_net
    with
    | Error e -> raise (Hlp_util.Err.Error e)
    | Ok g ->
        let answer =
          [ ("estimate", Hlp_util.Json.Float g.Hlp_power.Probprop.capacitance);
            ("provenance",
             Hlp_power.Probprop.provenance_json g.Hlp_power.Probprop.provenance) ]
        in
        (match checkpoint_dir with
        | Some dir ->
            (* atomic per-job snapshot: old complete file or new complete
               file, never a torn one *)
            Hlp_util.Json.write
              ~path:(Filename.concat dir (job.bj_name ^ ".result.json"))
              (Hlp_util.Json.Obj (("name", Hlp_util.Json.Str job.bj_name) :: answer))
        | None -> ());
        (g, answer)
  in
  let (results, stats), signal =
    Hlp_util.Supervisor.with_graceful_stop (fun token ->
        Hlp_util.Supervisor.run_jobs ?max_inflight ?queue_budget
          ?deadline_s:deadline ~token run_job jobs)
  in
  Printf.printf "%-20s %-12s %s\n" "job" "status" "result";
  Array.iteri
    (fun i r ->
      match r with
      | Ok (g, _) ->
          Printf.printf "%-20s %-12s %10.1f cap units/cycle [%s]\n"
            jobs.(i).bj_name "ok" g.Hlp_power.Probprop.capacitance
            g.Hlp_power.Probprop.provenance.Hlp_power.Probprop.estimator_used
      | Error e ->
          Printf.printf "%-20s %-12s %s\n" jobs.(i).bj_name
            (Hlp_util.Err.class_name e)
            (Hlp_util.Err.to_string e))
    results;
  Printf.printf
    "%d jobs: %d ok, %d failed, %d shed (queue), %d shed (deadline)\n"
    (Array.length jobs) stats.Hlp_util.Supervisor.ok
    stats.Hlp_util.Supervisor.failed stats.Hlp_util.Supervisor.shed_queue
    stats.Hlp_util.Supervisor.shed_deadline;
  (match signal with
  | Some _ -> print_endline "stopped by signal; journals flushed"
  | None -> ());
  let summary_json =
    Hlp_util.Json.Obj
      [ ("command", Hlp_util.Json.Str "batch");
        ("jobs",
         Hlp_util.Json.List
           (Array.to_list
              (Array.mapi
                 (fun i r ->
                   Hlp_util.Json.Obj
                     (("name", Hlp_util.Json.Str jobs.(i).bj_name)
                     ::
                     (match r with
                     | Ok (_, answer) ->
                         ("status", Hlp_util.Json.Str "ok") :: answer
                     | Error e ->
                         [ ("status",
                            Hlp_util.Json.Str (Hlp_util.Err.class_name e));
                           ("error",
                            Hlp_util.Json.Str (Hlp_util.Err.to_string e)) ])))
                 results)));
        ("stats",
         Hlp_util.Json.Obj
           [ ("ran", Hlp_util.Json.Int stats.Hlp_util.Supervisor.ran);
             ("ok", Hlp_util.Json.Int stats.Hlp_util.Supervisor.ok);
             ("failed", Hlp_util.Json.Int stats.Hlp_util.Supervisor.failed);
             ("shed_queue",
              Hlp_util.Json.Int stats.Hlp_util.Supervisor.shed_queue);
             ("shed_deadline",
              Hlp_util.Json.Int stats.Hlp_util.Supervisor.shed_deadline) ]);
        ("signal",
         match signal with
         | Some s ->
             Hlp_util.Json.Int (Hlp_util.Supervisor.signal_exit_code s - 128)
         | None -> Hlp_util.Json.Null);
        ("telemetry", Hlp_util.Telemetry.json_value ()) ]
  in
  (match report with
  | Some path ->
      Hlp_util.Json.write ~path summary_json;
      Printf.printf "batch report written to %s\n" path
  | None -> ());
  (match checkpoint_dir with
  | Some dir ->
      Hlp_util.Json.write
        ~path:(Filename.concat dir "batch_summary.json")
        summary_json
  | None -> ());
  match signal with
  | Some s -> Hlp_util.Supervisor.signal_exit_code s
  | None -> (
      (* 0 iff every job delivered; otherwise the stable code of the first
         failure in job order, so scripts see a deterministic class *)
      match
        Array.find_opt (function Error _ -> true | Ok _ -> false) results
      with
      | Some (Error e) -> Hlp_util.Err.exit_code e
      | _ -> 0)

let batch_cmd =
  let jobs_file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOBS.json"
             ~doc:
               "JSON array of estimate jobs; each object may set $(b,name), \
                $(b,circuit), $(b,width), $(b,seed), $(b,engine) (default \
                $(b,compiled)), $(b,relative_precision), $(b,max_cycles), \
                $(b,batch), $(b,node_limit)")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:
               "journal every job's Monte Carlo state into $(docv) (created \
                if missing) and snapshot per-job results there atomically; \
                required for $(b,--resume)")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "resume killed jobs from their journals in \
                $(b,--checkpoint-dir): finished batches are replayed, not \
                re-simulated, and resumed estimates are byte-identical to \
                uninterrupted ones")
  in
  let max_inflight =
    Arg.(value & opt (some int) None
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:
               "bound on concurrently running jobs (default: half the \
                recommended domain count); must be >= 1")
  in
  let queue_budget =
    Arg.(value & opt (some int) None
         & info [ "queue-budget" ] ~docv:"N"
             ~doc:
               "admission-control budget: jobs beyond the first $(docv) are \
                shed with the typed overloaded error (exit 70) instead of \
                queueing unboundedly")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "wall-clock budget for the whole batch; jobs not started in \
                time are shed with the deadline-exceeded error")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"write the batch summary JSON to $(docv) (atomic)")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a supervised campaign of estimate jobs with checkpoint/resume")
    Term.(const batch $ jobs_file $ checkpoint_dir $ resume $ max_inflight
          $ queue_budget $ deadline $ max_retries $ outputs $ report)

(* --- serve and supervise --- *)

(* The serve knobs a SIGHUP reload may change, assembled from CLI flags
   at startup and re-read from --config on each reload. A config file is
   a JSON object with any of: queue_budget, deadline_s, slow_s,
   mem_soft_mb, mem_hard_mb; a present key overrides, an explicit null
   clears an optional, a missing key keeps the current value, and no
   file keeps them all. *)
let knobs_of_config base = function
  | None -> base
  | Some path -> (
      let module J = Hlp_util.Json in
      let contents =
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error m ->
          raise (Hlp_util.Err.invalid_input ~what:"--config" ("unreadable: " ^ m))
      in
      match J.parse contents with
      | Error m ->
          raise (Hlp_util.Err.invalid_input ~what:"--config" ("parse: " ^ m))
      | Ok v ->
          let opt name conv current =
            match J.member name v with
            | None -> current
            | Some J.Null -> None
            | Some jv -> (
                match conv jv with
                | Some x -> Some x
                | None ->
                    raise
                      (Hlp_util.Err.invalid_input ~what:("--config: " ^ name)
                         "has the wrong type"))
          in
          let mb name current =
            Option.map (fun m -> m * 1024 * 1024)
              (opt name J.to_int_opt (Option.map (fun b -> b / (1024 * 1024)) current))
          in
          let open Hlp_util.Server in
          {
            queue_budget =
              Option.value ~default:base.queue_budget
                (opt "queue_budget" J.to_int_opt (Some base.queue_budget));
            deadline_s = opt "deadline_s" J.to_float_opt base.deadline_s;
            slow_s = opt "slow_s" J.to_float_opt base.slow_s;
            mem_soft_bytes = mb "mem_soft_mb" base.mem_soft_bytes;
            mem_hard_bytes = mb "mem_hard_mb" base.mem_hard_bytes;
          })

(* The serve flags that supervise forwards to its child, declared once
   for both commands. *)
type daemon = {
  socket : string;
  state_dir : string option;
  pid_file : string option;
  queue_budget : int option;
  deadline : float option;
  mem_soft_mb : int option;
  mem_hard_mb : int option;
  config : string option;
}

(* serve's, supervise's and client's *)
let socket =
  Arg.(value & opt string "/tmp/hlpower.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:
             "Unix-domain socket of the daemon (serve replaces a stale file \
              and refuses a path with a live daemon with the typed \
              invalid-input code)")

let daemon =
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:
               "crash-only warm restarts: rehydrate the estimate cache from \
                $(docv)/snapshot.hlp at startup (torn, stale, or mismatched \
                snapshots self-heal to a counted cold start) and spill it \
                back atomically every --snapshot-interval and at drain")
  in
  let pid_file =
    Arg.(value & opt (some string) None
         & info [ "pid-file" ] ~docv:"FILE"
             ~doc:
               "write the daemon pid to $(docv) atomically at startup and \
                unlink it on drain, so supervision and ops tooling find the \
                daemon without parsing ps")
  in
  let queue_budget =
    Arg.(value & opt (some int) None
         & info [ "queue-budget" ] ~docv:"N"
             ~doc:
               "admission budget: connections beyond $(docv) waiting for a \
                worker receive one typed overloaded frame (exit-code field \
                70) and are closed")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"per-request wall-clock budget (typed deadline-exceeded)")
  in
  let mem_soft_mb =
    Arg.(value & opt (some int) None
         & info [ "mem-soft-mb" ] ~docv:"MIB"
             ~doc:
               "soft memory budget: RSS at or above $(docv) MiB triggers \
                proportional cache eviction each sample \
                (server.memory.soft_trims)")
  in
  let mem_hard_mb =
    Arg.(value & opt (some int) None
         & info [ "mem-hard-mb" ] ~docv:"MIB"
             ~doc:
               "hard memory budget: RSS at or above $(docv) MiB sheds new \
                requests with the typed overloaded envelope \
                (server.memory.hard_sheds) instead of dying to the OOM \
                killer")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "config" ] ~docv:"FILE"
             ~doc:
               "JSON knob file (queue_budget, deadline_s, slow_s, \
                mem_soft_mb, mem_hard_mb) applied at startup and re-read on \
                SIGHUP — a hot reload that never drops connections; an \
                invalid file is rejected loudly and the old knobs stay")
  in
  Term.(
    const
      (fun socket state_dir pid_file queue_budget deadline mem_soft_mb
           mem_hard_mb config ->
        { socket; state_dir; pid_file; queue_budget; deadline; mem_soft_mb;
          mem_hard_mb; config })
    $ socket $ state_dir $ pid_file $ queue_budget $ deadline $ mem_soft_mb
    $ mem_hard_mb $ config)

(* serve's starting knobs: the flags, then --config over them, then
   Server.validate_knobs; the state dir and pid file must be writable.
   supervise runs it too, so a bad forwarded value is a typed
   invalid-input before any child starts. *)
let serve_knobs ?slow_threshold d =
  require_output_dir ~flag:"--state-dir" d.state_dir;
  require_output_dir ~flag:"--pid-file" d.pid_file;
  let mib flag v =
    Option.map (fun m -> m * 1024 * 1024) (require_at_least ~flag 1 v)
  in
  let flags =
    {
      Hlp_util.Server.queue_budget =
        Option.value ~default:Hlp_util.Server.default_knobs.queue_budget
          (require_at_least ~flag:"--queue-budget" 1 d.queue_budget);
      deadline_s = require_positive_float ~flag:"--deadline" d.deadline;
      slow_s = require_positive_float ~flag:"--slow-threshold" slow_threshold;
      mem_soft_bytes = mib "--mem-soft-mb" d.mem_soft_mb;
      mem_hard_bytes = mib "--mem-hard-mb" d.mem_hard_mb;
    }
  in
  let knobs = knobs_of_config flags d.config in
  Hlp_util.Server.validate_knobs knobs;
  knobs

let snapshot_file state_dir = Filename.concat state_dir "snapshot.hlp"

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let serve d max_inflight outputs access_log access_log_max_bytes
    slow_threshold snapshot_interval =
  with_typed_errors @@ fun () ->
  let max_inflight = require_at_least ~flag:"--max-inflight" 1 max_inflight in
  let access_log_max_bytes =
    require_at_least ~flag:"--access-log-max-bytes" 1 access_log_max_bytes
  in
  require_output_dir ~flag:"--access-log" access_log;
  let snapshot_interval =
    Option.value ~default:5.0
      (require_positive_float ~flag:"--snapshot-interval" snapshot_interval)
  in
  (* hot-reloadable: --config is read over them again on every SIGHUP *)
  let knobs = Atomic.make (serve_knobs ?slow_threshold d) in
  (* the flight recorder (per-op histograms, access log, metrics op) runs
     off the telemetry switch: a serving daemon always records *)
  with_outputs ~telemetry:true outputs @@ fun () ->
  let service = Hlp_power.Service.create () in
  (* SIGHUP: the handler only flips a flag; the reload itself — file
     read, validation, Atomic.set — runs on the accept tick, so nothing
     allocates or raises inside a signal handler and a bad config can be
     rejected loudly without dropping the daemon *)
  let hup = Atomic.make false in
  (try
     ignore
       (Sys.signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set hup true)))
   with Invalid_argument _ | Sys_error _ -> ());
  (* warm-restart rehydration before the socket opens: the first request
     for a previously-warm key is already a byte-identical hit *)
  (match d.state_dir with
  | Some dir -> (
      ensure_dir dir;
      match Hlp_power.Service.load_snapshot service ~path:(snapshot_file dir) with
      | `Restored n ->
          Printf.printf "hlpower serve: restored %d cache entries from snapshot\n%!" n
      | `Cold reason ->
          Printf.printf "hlpower serve: cold start (snapshot %s)\n%!" reason)
  | None -> ());
  (match d.pid_file with
  | Some path ->
      Hlp_util.Journal.write_atomic ~path (string_of_int (Unix.getpid ()) ^ "\n")
  | None -> ());
  let last_spill = ref (Hlp_util.Clock.now_s ()) in
  let spill () =
    match d.state_dir with
    | None -> ()
    | Some dir -> (
        try ignore (Hlp_power.Service.save_snapshot service ~path:(snapshot_file dir))
        with _ -> () (* an unwritable disk must not kill the daemon *))
  in
  let on_tick () =
    if Atomic.compare_and_set hup true false then begin
      match knobs_of_config (Atomic.get knobs) d.config with
      | k ->
          Hlp_util.Server.set_knobs knobs k;
          Printf.printf "hlpower serve: knobs reloaded\n%!"
      | exception Hlp_util.Err.Error e ->
          Printf.printf "hlpower serve: reload rejected [%s]: %s\n%!"
            (Hlp_util.Err.class_name e) (Hlp_util.Err.to_string e)
    end;
    let now = Hlp_util.Clock.now_s () in
    if now -. !last_spill >= snapshot_interval then begin
      last_spill := now;
      spill ()
    end
  in
  let (), signal =
    Hlp_util.Supervisor.with_graceful_stop (fun token ->
        Hlp_util.Server.serve ?max_inflight ~token
          ~on_ready:(fun () ->
            Printf.printf "hlpower serve: listening on %s\n%!" d.socket)
          ?access_log ?access_log_max_bytes ~knobs ~on_tick
          ~on_memory_soft:(fun () -> ignore (Hlp_power.Service.trim service))
          ~path:d.socket
          (Hlp_power.Service.handle service))
  in
  (* final spill: the drain path leaves the freshest possible snapshot
     for the next incarnation *)
  spill ();
  (match d.pid_file with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  print_endline "hlpower serve: drained";
  match signal with
  | Some s -> Hlp_util.Supervisor.signal_exit_code s
  | None -> 0

let serve_cmd =
  let max_inflight =
    Arg.(value & opt (some int) None
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:
               "worker domains serving connections (default: half the \
                recommended domain count); must be >= 1")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:
               "write one JSON line per served request (timestamp, request \
                id, op, cache outcome, queue/service seconds, bytes, status) \
                to $(docv), rotated at the size bound")
  in
  let access_log_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "access-log-max-bytes" ] ~docv:"BYTES"
             ~doc:
               "rotate the access log past $(docv) bytes (default 16 MiB); \
                the log plus its one rotation never exceed ~2x this")
  in
  let slow_threshold =
    Arg.(value & opt (some float) None
         & info [ "slow-threshold" ] ~docv:"SECONDS"
             ~doc:
               "requests slower than $(docv) bump server.slow_requests and \
                emit a server.slow_request trace instant carrying the \
                request id")
  in
  let snapshot_interval =
    Arg.(value & opt (some float) None
         & info [ "snapshot-interval" ] ~docv:"SECONDS"
             ~doc:"seconds between cache snapshot spills (default 5)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent estimation daemon (fingerprint-keyed hot \
          caches, admission control, cache snapshot/restore, \
          memory-pressure-aware admission, SIGHUP knob reload, graceful \
          SIGINT/SIGTERM drain)")
    Term.(const serve $ daemon $ max_inflight $ outputs $ access_log
          $ access_log_max_bytes $ slow_threshold $ snapshot_interval)

let supervise d journal probe_interval probe_misses backoff_base backoff_cap
    flap_window flap_max grace seed serve_args =
  with_typed_errors @@ fun () ->
  let probe_interval =
    Option.value ~default:0.5
      (require_positive_float ~flag:"--probe-interval" probe_interval)
  in
  let probe_misses =
    Option.value ~default:4 (require_at_least ~flag:"--probe-misses" 1 probe_misses)
  in
  let backoff_base =
    Option.value ~default:0.1
      (require_positive_float ~flag:"--backoff-base" backoff_base)
  in
  let backoff_cap =
    Option.value ~default:5.0
      (require_positive_float ~flag:"--backoff-cap" backoff_cap)
  in
  let flap_window =
    Option.value ~default:30.0
      (require_positive_float ~flag:"--flap-window" flap_window)
  in
  let flap_max =
    Option.value ~default:5 (require_at_least ~flag:"--flap-max" 1 flap_max)
  in
  let grace =
    Option.value ~default:5.0 (require_positive_float ~flag:"--grace" grace)
  in
  ignore (serve_knobs d);
  require_output_dir ~flag:"--journal" journal;
  Hlp_util.Telemetry.enable ();
  (* the supervision journal: one JSONL line per lifecycle event *)
  let lines = Option.map (fun p -> Hlp_util.Journal.Lines.open_ p) journal in
  let log_event ev =
    let j = Hlp_util.Supervisor.watchdog_event_json ev in
    (match lines with
    | Some l -> (
        try Hlp_util.Journal.Lines.append l (Hlp_util.Json.to_string ~compact:true j)
        with _ -> ())
    | None -> ());
    (* the console mirror keeps an unjournaled run observable *)
    Printf.printf "hlpower supervise: %s\n%!"
      (Hlp_util.Json.to_string ~compact:true j)
  in
  (* the child is a re-exec of this binary (bare fork is unsafe under
     OCaml 5 domains): hlpower serve with the lifecycle flags threaded
     through, plus any raw passthrough args after -- *)
  let child_argv =
    let opt flag v f = match v with Some x -> [ flag; f x ] | None -> [] in
    Array.of_list
      ([ Sys.executable_name; "serve"; "--socket"; d.socket ]
      @ opt "--state-dir" d.state_dir Fun.id
      @ opt "--pid-file" d.pid_file Fun.id
      @ opt "--mem-soft-mb" d.mem_soft_mb string_of_int
      @ opt "--mem-hard-mb" d.mem_hard_mb string_of_int
      @ opt "--queue-budget" d.queue_budget string_of_int
      @ opt "--deadline" d.deadline string_of_float
      @ opt "--config" d.config Fun.id
      @ serve_args)
  in
  let start () =
    Unix.create_process Sys.executable_name child_argv Unix.stdin Unix.stdout
      Unix.stderr
  in
  (* liveness: one bounded ping round trip on a fresh connection — a
     daemon that accepts but cannot answer is as dead as one that won't
     accept *)
  let probe () =
    match Hlp_util.Server.connect ~wait_s:0.25 d.socket with
    | exception _ -> false
    | c ->
        Fun.protect
          ~finally:(fun () -> Hlp_util.Server.close c)
          (fun () ->
            match
              Hlp_util.Server.request ~timeout_s:(2.0 *. probe_interval) c
                (Hlp_power.Service.ping_request ())
            with
            | exception _ -> false
            | resp -> (
                match Hlp_power.Service.parse_response resp with
                | Ok r -> r.Hlp_power.Service.ok
                | Error _ -> false))
  in
  let outcome, signal =
    Hlp_util.Supervisor.with_graceful_stop (fun token ->
        Hlp_util.Supervisor.watch ~probe ~probe_every_s:probe_interval
          ~probe_misses ~backoff_base_s:backoff_base ~backoff_cap_s:backoff_cap
          ~flap_window_s:flap_window ~flap_max ~grace_s:grace ?seed
          ~on_event:log_event ~token ~start ())
  in
  Option.iter
    (fun l -> try Hlp_util.Journal.Lines.close l with _ -> ())
    lines;
  match outcome with
  | `Gave_up n ->
      raise
        (Hlp_util.Err.Error
           (Hlp_util.Err.Worker_failure
              {
                shard = 0;
                attempts = n;
                why =
                  Printf.sprintf
                    "watchdog flap breaker: %d restarts within %.0fs" n
                    flap_window;
              }))
  | `Drained -> (
      print_endline "hlpower supervise: drained";
      match signal with
      | Some s -> Hlp_util.Supervisor.signal_exit_code s
      | None -> 0)

let supervise_cmd =
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:
               "supervision journal: one JSON line per lifecycle event \
                (started, healthy, probe-timeout, exited, restarting, \
                gave-up, draining, drained)")
  in
  let probe_interval =
    Arg.(value & opt (some float) None
         & info [ "probe-interval" ] ~docv:"SECONDS"
             ~doc:"seconds between ping health probes (default 0.5)")
  in
  let probe_misses =
    Arg.(value & opt (some int) None
         & info [ "probe-misses" ] ~docv:"N"
             ~doc:
               "consecutive probe failures before the child is declared \
                wedged and restarted (default 4)")
  in
  let backoff_base =
    Arg.(value & opt (some float) None
         & info [ "backoff-base" ] ~docv:"SECONDS"
             ~doc:"decorrelated-jitter restart backoff base (default 0.1)")
  in
  let backoff_cap =
    Arg.(value & opt (some float) None
         & info [ "backoff-cap" ] ~docv:"SECONDS"
             ~doc:"restart backoff cap (default 5)")
  in
  let flap_window =
    Arg.(value & opt (some float) None
         & info [ "flap-window" ] ~docv:"SECONDS"
             ~doc:"sliding window of the flap breaker (default 30)")
  in
  let flap_max =
    Arg.(value & opt (some int) None
         & info [ "flap-max" ] ~docv:"N"
             ~doc:
               "more than $(docv) restarts inside the flap window give up \
                with the typed worker-failure exit (default 5)")
  in
  let grace =
    Arg.(value & opt (some float) None
         & info [ "grace" ] ~docv:"SECONDS"
             ~doc:
               "SIGTERM-to-SIGKILL escalation grace when draining or \
                restarting a wedged child (default 5)")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"N"
             ~doc:"fix the backoff jitter stream (tests)")
  in
  let serve_args =
    Arg.(value & pos_all string []
         & info [] ~docv:"SERVE_ARG"
             ~doc:
               "extra raw arguments appended to the child's serve command \
                line (after --)")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Watchdog for the estimation daemon: check the serve flags it \
          forwards, re-exec hlpower serve, health-probe it over ping, \
          restart on crash or wedge with decorrelated-jitter backoff and a \
          flap breaker, propagate SIGTERM as graceful drain, and journal \
          every lifecycle event")
    Term.(const supervise $ daemon $ journal $ probe_interval $ probe_misses
          $ backoff_base $ backoff_cap $ flap_window $ flap_max $ grace $ seed
          $ serve_args)

(* --- client --- *)

let client_op_enum =
  [ ("estimate", `Estimate); ("sampler", `Sampler); ("ping", `Ping);
    ("stats", `Stats); ("metrics", `Metrics) ]

let client socket op circuit width engine seed rp max_cycles node_limit cycles
    sleep_s clients requests connect_wait max_retries request_timeout
    prometheus =
  with_typed_errors @@ fun () ->
  if prometheus && op <> `Metrics then
    raise
      (Hlp_util.Err.invalid_input ~what:"--prometheus"
         "only meaningful with --op metrics");
  let build id =
    match op with
    | `Ping -> Hlp_power.Service.ping_request ~id ?sleep_s ()
    | `Stats -> Hlp_power.Service.stats_request ~id ()
    | `Metrics -> Hlp_power.Service.metrics_request ~id ()
    | `Estimate ->
        Hlp_power.Service.estimate_request ~id ?engine ?seed
          ?relative_precision:rp ?max_cycles ?node_limit ~circuit ~width ()
    | `Sampler ->
        Hlp_power.Service.sampler_request ~id ?engine ?seed ?cycles ~circuit
          ~width ()
  in
  (* closed-loop loadgen: each client holds one persistent connection and
     issues its requests back-to-back; responses are printed after all
     clients join, in (client, request) order, so two runs against the
     same cache state are byte-comparable on stdout *)
  let run_client c () =
    (* the resilient client: reconnects and retries through restarts and
       shed load; every protocol op is idempotent (see Service), so the
       default retry policy applies. Jitter seeded per client index for
       a reproducible schedule. *)
    let cl =
      Hlp_util.Server.Client.create ~seed:c ?max_retries
        ?request_timeout_s:request_timeout ?connect_wait_s:connect_wait socket
    in
    Fun.protect ~finally:(fun () -> Hlp_util.Server.Client.close cl) @@ fun () ->
    let lats = Array.make requests 0.0 in
    let outs = Array.make requests "" in
    let first_err = ref None in
    for r = 0 to requests - 1 do
      let payload = build ((c * requests) + r) in
      let t0 = Hlp_util.Clock.now_s () in
      let resp = Hlp_util.Server.Client.request cl payload in
      lats.(r) <- Hlp_util.Clock.now_s () -. t0;
      outs.(r) <-
        (match Hlp_power.Service.parse_response resp with
        | Ok pr when pr.Hlp_power.Service.ok ->
            if prometheus then
              Hlp_power.Service.prometheus_of_metrics
                (Option.value ~default:(Hlp_util.Json.Obj [])
                   pr.Hlp_power.Service.result)
            else
              Option.value ~default:"{}" (Hlp_power.Service.result_string pr)
        | Ok pr ->
            let cls, msg, code =
              Option.value ~default:("unknown", "missing error body", 1)
                pr.Hlp_power.Service.error
            in
            if !first_err = None then first_err := Some code;
            Printf.sprintf "error %s (%d): %s" cls code msg
        | Error m ->
            if !first_err = None then first_err := Some 65;
            "error bad-response: " ^ m)
    done;
    (lats, outs, !first_err, Hlp_util.Server.Client.counts cl)
  in
  let all =
    List.map Domain.join (List.init clients (fun c -> Domain.spawn (run_client c)))
  in
  List.iteri
    (fun c (_, outs, _, _) ->
      Array.iteri
        (fun r line ->
          (* prometheus output is a multi-line document, not a result line *)
          if prometheus then print_string line
          else Printf.printf "client %d req %d: %s\n" c r line)
        outs)
    all;
  let lats =
    Array.of_list (List.concat_map (fun (l, _, _, _) -> Array.to_list l) all)
  in
  Array.sort Float.compare lats;
  let n = Array.length lats in
  (* the same histogram/quantile math the server reports, so client-side
     and server-side percentiles of one run agree within Hdr's bound *)
  let hist = Hlp_util.Hdr.create () in
  Array.iter (fun l -> Hlp_util.Hdr.record hist (l *. 1e9)) lats;
  let snap = Hlp_util.Hdr.snapshot hist in
  let pct p = Hlp_util.Hdr.quantile snap p /. 1e6 in
  let total = Array.fold_left ( +. ) 0.0 lats in
  Printf.eprintf
    "%d requests over %d client(s): p50 %.3f ms, p99 %.3f ms, mean %.3f ms, \
     max %.3f ms\n"
    n clients (pct 0.50) (pct 0.99)
    (1000.0 *. total /. float_of_int n)
    (1000.0 *. lats.(n - 1));
  let logical, wire =
    List.fold_left
      (fun (l, w) (_, _, _, (cl, cw)) -> (l + cl, w + cw))
      (0, 0) all
  in
  if wire > logical then
    Printf.eprintf "retries: %d extra frame(s), amplification %.3f\n"
      (wire - logical)
      (float_of_int wire /. float_of_int (max 1 logical));
  match List.find_map (fun (_, _, e, _) -> e) all with
  | Some code -> code
  | None -> 0

let client_cmd =
  let op =
    Arg.(value & opt (enum client_op_enum) `Estimate
         & info [ "op" ] ~docv:"OP" ~doc:(enum_doc client_op_enum))
  in
  let circuit =
    Arg.(value & opt string "adder"
         & info [ "circuit" ] ~docv:"CIRCUIT"
             ~doc:"circuit name (validated by the server)")
  in
  let width = Arg.(value & opt int 8 & info [ "width" ] ~doc:"operand bit width") in
  let engine =
    Arg.(value & opt (some string) None
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"simulation engine (server default: compiled)")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~doc:"PRNG seed (server default: 47)")
  in
  let rp =
    Arg.(value & opt (some float) None
         & info [ "relative-precision" ]
             ~doc:"Monte Carlo stopping precision (server default: 0.05)")
  in
  let max_cycles =
    Arg.(value & opt (some int) None
         & info [ "max-cycles" ] ~doc:"Monte Carlo cycle budget")
  in
  let node_limit =
    Arg.(value & opt (some int) None
         & info [ "node-limit" ] ~doc:"symbolic BDD node budget")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~doc:"sampler op: cosimulated cycles (default 256)")
  in
  let sleep_s =
    Arg.(value & opt (some float) None
         & info [ "sleep" ] ~docv:"SECONDS"
             ~doc:"ping op: hold the worker busy (overload testing)")
  in
  let clients =
    Arg.(value & opt (int_at_least 1 "--clients") 1
         & info [ "clients" ] ~docv:"N" ~doc:"concurrent closed-loop clients")
  in
  let requests =
    Arg.(value & opt (int_at_least 1 "--requests") 1
         & info [ "requests" ] ~docv:"M" ~doc:"requests per client")
  in
  let connect_wait =
    Arg.(value & opt (some float) None
         & info [ "connect-wait" ] ~docv:"SECONDS"
             ~doc:"how long to retry connecting to a starting daemon \
                   (default 5)")
  in
  let max_retries =
    Arg.(value & opt (some int) None
         & info [ "max-retries" ] ~docv:"N"
             ~doc:
               "bounded retries per request through reconnects, shed load, \
                and torn frames (default 5); all protocol ops are \
                idempotent, so replay is safe")
  in
  let request_timeout =
    Arg.(value & opt (some float) None
         & info [ "request-timeout" ] ~docv:"SECONDS"
             ~doc:
               "per-round-trip deadline (typed deadline-exceeded, then \
                retry); without it a hung server hangs the client")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:
               "with --op metrics: print the snapshot in Prometheus text \
                exposition format instead of JSON")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Query a running hlpower serve daemon; with --clients/--requests \
          it is a closed-loop load generator (responses on stdout, latency \
          stats on stderr)")
    Term.(const client $ socket $ op $ circuit $ width $ engine $ seed $ rp
          $ max_cycles $ node_limit $ cycles $ sleep_s $ clients $ requests
          $ connect_wait $ max_retries $ request_timeout $ prometheus)

(* --- top --- *)

(* Live daemon dashboard: poll the [metrics] op and render deltas.
   Rates (req/s, sheds/s) come from successive counter samples, so the
   dashboard needs no server-side state beyond the flight recorder. *)
let top socket interval count once =
  with_typed_errors @@ fun () ->
  let module J = Hlp_util.Json in
  ignore (require_positive_float ~flag:"--interval" interval);
  ignore (require_at_least ~flag:"--count" 1 count);
  let cl = Hlp_util.Server.Client.create socket in
  Fun.protect ~finally:(fun () -> Hlp_util.Server.Client.close cl) @@ fun () ->
  let fetch () =
    let resp =
      Hlp_util.Server.Client.request cl (Hlp_power.Service.metrics_request ())
    in
    match Hlp_power.Service.parse_response resp with
    | Ok pr when pr.Hlp_power.Service.ok ->
        Option.value ~default:(J.Obj []) pr.Hlp_power.Service.result
    | Ok pr ->
        let cls, msg, _ =
          Option.value ~default:("unknown", "missing error body", 1)
            pr.Hlp_power.Service.error
        in
        raise
          (Hlp_util.Err.invalid_input ~what:"metrics"
             (Printf.sprintf "%s: %s" cls msg))
    | Error m -> raise (Hlp_util.Err.invalid_input ~what:"metrics response" m)
  in
  let num name v =
    Option.value ~default:0.0 (Option.bind (J.member name v) J.to_float_opt)
  in
  let obj_fields name v =
    match J.member name v with Some (J.Obj fs) -> fs | _ -> []
  in
  let counter snap name =
    match J.member "counters" snap with Some c -> num name c | None -> 0.0
  in
  (* per-op service-time histograms live under server.op.<op>.service_ns *)
  let op_rows snap =
    List.filter_map
      (fun (hname, h) ->
        let prefix = "server.op." and suffix = ".service_ns" in
        let pl = String.length prefix and sl = String.length suffix in
        let nl = String.length hname in
        if
          nl > pl + sl
          && String.sub hname 0 pl = prefix
          && String.sub hname (nl - sl) sl = suffix
        then
          let op = String.sub hname pl (nl - pl - sl) in
          Some (op, num "count" h, num "p50" h /. 1e6, num "p99" h /. 1e6)
        else None)
      (obj_fields "histograms" snap)
  in
  let render ~prev_reqs ~prev_sheds ~dt snap =
    let b = Buffer.create 2048 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let reqs = counter snap "server.requests" in
    let sheds = counter snap "server.sheds" in
    let rate cur prev = if dt > 0.0 then (cur -. prev) /. dt else 0.0 in
    line "hlpower top — %s   uptime %.1fs   telemetry %s" socket
      (num "uptime_s" snap)
      (match J.member "telemetry_enabled" snap with
      | Some (J.Bool true) -> "on"
      | _ -> "off");
    line
      "requests %.0f (%.1f/s)   sheds %.0f (%.1f/s)   slow %.0f   frame \
       errors %.0f"
      reqs (rate reqs prev_reqs) sheds (rate sheds prev_sheds)
      (counter snap "server.slow_requests")
      (counter snap "server.frame_errors");
    line "estimates inflight %.0f   coalesced %.0f"
      (num "estimates_inflight" snap)
      (num "estimates_coalesced" snap);
    (match op_rows snap with
    | [] -> ()
    | rows ->
        line "";
        line "%-24s %10s %10s %10s" "op" "count" "p50 ms" "p99 ms";
        List.iter
          (fun (op, c, p50, p99) ->
            line "%-24s %10.0f %10.3f %10.3f" op c p50 p99)
          rows);
    (match obj_fields "caches" snap with
    | [] -> ()
    | caches ->
        line "";
        line "%-24s %9s %8s %8s %8s %6s %6s" "cache" "size/cap" "infl"
          "hits" "misses" "evict" "hit%";
        List.iter
          (fun (cname, c) ->
            let hr =
              match Option.bind (J.member "hit_ratio" c) J.to_float_opt with
              | Some r -> Printf.sprintf "%5.1f" (100.0 *. r)
              | None -> "    -"
            in
            line "%-24s %5.0f/%-3.0f %8.0f %8.0f %8.0f %8.0f %s" cname
              (num "length" c) (num "capacity" c) (num "inflight" c)
              (num "hits" c) (num "misses" c) (num "evictions" c) hr)
          caches);
    Buffer.contents b
  in
  (* non-TTY stdout (CI, pipes) degrades to a single snapshot: `top` is
     then a formatted one-shot metrics query, greppable in scripts *)
  let tty = Unix.isatty Unix.stdout in
  let one_shot = once || not tty in
  let interval = Option.value ~default:1.0 interval in
  let rounds =
    if one_shot then 1 else Option.value ~default:max_int count
  in
  let prev = ref None in
  (try
     for i = 0 to rounds - 1 do
       let t = Hlp_util.Clock.now_s () in
       let snap = fetch () in
       let prev_reqs, prev_sheds, dt =
         match !prev with
         | None -> (counter snap "server.requests", counter snap "server.sheds", 0.0)
         | Some (r, s, t0) -> (r, s, t -. t0)
       in
       let out = render ~prev_reqs ~prev_sheds ~dt snap in
       if tty && not one_shot then print_string "\027[2J\027[H";
       print_string out;
       flush stdout;
       prev := Some (counter snap "server.requests", counter snap "server.sheds", t);
       if i < rounds - 1 then Unix.sleepf interval
     done
   with Sys.Break -> ());
  0

let top_cmd =
  let socket =
    Arg.(value & pos 0 string "/tmp/hlpower.sock"
         & info [] ~docv:"SOCKET" ~doc:"socket of a running daemon")
  in
  let interval =
    Arg.(value & opt (some float) None
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"seconds between refreshes (default 1)")
  in
  let count =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N" ~doc:"stop after N refreshes")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:
               "print one snapshot and exit (implied when stdout is not a \
                terminal)")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard of a running hlpower serve daemon: request rates, \
          per-op latency percentiles, cache hit ratios, inflight and shed \
          counts, polled from the metrics op")
    Term.(const top $ socket $ interval $ count $ once)

(* --- chaos-proxy --- *)

let chaos_proxy listen upstream seed rate faults max_delay workers =
  with_typed_errors @@ fun () ->
  let faults =
    match faults with
    | None -> None
    | Some names ->
        Some
          (List.map
             (fun n ->
               match Hlp_util.Chaos.fault_of_name (String.trim n) with
               | Some f -> f
               | None ->
                   raise
                     (Hlp_util.Err.invalid_input ~what:"--faults"
                        ("unknown fault " ^ n ^ " (expected "
                        ^ String.concat ", "
                            (List.map Hlp_util.Chaos.fault_name
                               Hlp_util.Chaos.all_faults)
                        ^ ")")))
             (String.split_on_char ',' names))
  in
  let proxy =
    Hlp_util.Chaos.start ?seed ?rate ?faults ?max_delay_s:max_delay ?workers
      ~listen ~upstream ()
  in
  Printf.printf "hlpower chaos-proxy: %s -> %s\n%!" listen upstream;
  let (), signal =
    Hlp_util.Supervisor.with_graceful_stop (fun token ->
        while not (Hlp_util.Guard.is_cancelled token) do
          Unix.sleepf 0.1
        done)
  in
  Hlp_util.Chaos.stop proxy;
  print_endline "hlpower chaos-proxy: stopped";
  match signal with
  | Some s -> Hlp_util.Supervisor.signal_exit_code s
  | None -> 0

let chaos_cmd =
  let listen =
    Arg.(value & opt string "/tmp/hlpower-chaos.sock"
         & info [ "listen" ] ~docv:"PATH"
             ~doc:"socket clients connect to (faults injected here)")
  in
  let upstream =
    Arg.(value & opt string "/tmp/hlpower.sock"
         & info [ "upstream" ] ~docv:"PATH"
             ~doc:"socket of the real hlpower serve daemon")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~doc:"fault-schedule seed (default 0)")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"P"
             ~doc:"per-chunk fault probability in [0,1] (default 0.05)")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"LIST"
             ~doc:
               "comma-separated fault subset: delay, drop, truncate, \
                corrupt, split, slam (default: all)")
  in
  let max_delay =
    Arg.(value & opt (some float) None
         & info [ "max-delay" ] ~docv:"SECONDS"
             ~doc:"upper bound of an injected delay (default 0.05)")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"concurrent proxied connections (default 8)")
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:
         "Fault-injecting proxy between a client and a serve daemon: \
          deterministic (seeded) delays, drops, truncation, corruption, \
          split writes, and slammed connections, for resilience soaks")
    Term.(const chaos_proxy $ listen $ upstream $ seed $ rate $ faults
          $ max_delay $ workers)

(* --- bus-encode --- *)

let trace_enum =
  [ ("sequential", fun _ ~width ~n -> Hlp_bus.Traces.sequential () ~width ~n);
    ("jumps",
     fun rng ~width ~n -> Hlp_bus.Traces.sequential_with_jumps rng ~jump_prob:0.05 ~width ~n);
    ("interleaved",
     fun rng ~width ~n ->
       Hlp_bus.Traces.interleaved_arrays rng ~bases:[ 0x100; 0x4200; 0x8000 ]
         ~stride:1 ~width ~n);
    ("loop",
     (* a 12-word body plus two data accesses: 14 words an iteration *)
     fun rng ~width ~n ->
       Array.sub
         (Hlp_bus.Traces.loop_kernel rng ~body:12 ~iterations:((n + 13) / 14) ~width)
         0 n);
    ("random", fun rng ~width ~n -> Hlp_bus.Traces.random_data rng ~width ~n) ]

let bus_encode trace width n seed =
  let rng = Hlp_util.Prng.create seed in
  let stream = trace rng ~width ~n in
  let train = Hlp_bus.Traces.loop_kernel rng ~body:12 ~iterations:60 ~width in
  let beach = Hlp_bus.Encoding.train_beach ~width train in
  Printf.printf "%-14s %12s %6s\n" "scheme" "trans/word" "lines";
  List.iter
    (fun scheme ->
      assert (Hlp_bus.Encoding.roundtrip scheme ~width stream);
      let r = Hlp_bus.Encoding.evaluate scheme ~width stream in
      Printf.printf "%-14s %12.3f %6d\n"
        (Hlp_bus.Encoding.scheme_name scheme)
        r.Hlp_bus.Encoding.per_word r.Hlp_bus.Encoding.lines)
    [ Hlp_bus.Encoding.Binary; Hlp_bus.Encoding.Gray_code; Hlp_bus.Encoding.Bus_invert;
      Hlp_bus.Encoding.T0; Hlp_bus.Encoding.T0_bus_invert;
      Hlp_bus.Encoding.Working_zone { zones = 4; offset_bits = 4 }; beach ];
  0

let bus_cmd =
  let trace =
    named_opt trace_enum ~default:"sequential"
      (Arg.info [ "trace" ] ~docv:"TRACE" ~doc:(enum_doc trace_enum))
  in
  let width =
    (* the widths the Working-Zone and Beach codecs accept *)
    let widths = List.map (fun w -> (string_of_int w, w)) [ 8; 12; 16; 20; 24; 28; 32 ] in
    Arg.(value & opt (enum widths) 16
         & info [ "width" ] ~doc:"bus width (8, 12, ..., 32)")
  in
  let n =
    Arg.(value & opt (int_at_least 2 "--words") 4000
         & info [ "words" ] ~doc:"trace length")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed") in
  Cmd.v (Cmd.info "bus-encode" ~doc:"Compare bus encodings on a generated trace")
    Term.(const bus_encode $ trace $ width $ n $ seed)

(* --- pm-sim --- *)

let pm_sim sessions seed =
  let device = Hlp_pm.Policy.default_device in
  let w = Hlp_pm.Policy.workload ~sessions (Hlp_util.Prng.create seed) in
  Printf.printf "%-24s %12s %8s %10s\n" "policy" "improvement" "delay" "shutdowns";
  List.iter
    (fun p ->
      let s = Hlp_pm.Policy.simulate device p w in
      Printf.printf "%-24s %11.2fx %7.2f%% %10d\n" (Hlp_pm.Policy.policy_name p)
        s.Hlp_pm.Policy.improvement
        (100.0 *. s.Hlp_pm.Policy.delay_penalty)
        s.Hlp_pm.Policy.shutdowns)
    [ Hlp_pm.Policy.Always_on; Hlp_pm.Policy.Timeout 5.0; Hlp_pm.Policy.Threshold 1.0;
      Hlp_pm.Policy.Regression; Hlp_pm.Policy.Exp_average { alpha = 0.3; prewake = false };
      Hlp_pm.Policy.Oracle ];
  0

let pm_cmd =
  let sessions =
    Arg.(value & opt (int_at_least 1 "--sessions") 10_000
         & info [ "sessions" ] ~doc:"workload size")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  Cmd.v (Cmd.info "pm-sim" ~doc:"Simulate system-level shutdown policies")
    Term.(const pm_sim $ sessions $ seed)

(* --- fsm-encode --- *)

let machine_enum =
  [ ("counter", fun _ -> Hlp_fsm.Stg.counter_fsm ~bits:4);
    ("updown", fun _ -> Hlp_fsm.Stg.updown ~bits:4);
    ("reactive", fun _ -> Hlp_fsm.Stg.reactive ~wait_states:4 ~burst_states:4);
    ("seqdet", fun _ -> Hlp_fsm.Stg.sequence_detector ~pattern:[ true; false; true; true ]);
    ("random",
     fun seed ->
       Hlp_fsm.Stg.random_fsm (Hlp_util.Prng.create seed) ~states:12 ~input_bits:2
         ~output_bits:3) ]

let fsm_encode machine iterations seed =
  let stg = machine seed in
  let dist = Hlp_fsm.Markov.analyze stg in
  let rng = Hlp_util.Prng.create seed in
  Printf.printf "%-10s %16s %18s\n" "encoding" "E[Hamming]/cycle" "synth cap/cycle";
  List.iter
    (fun (name, enc) ->
      Printf.printf "%-10s %16.3f %18.1f\n" name
        (Hlp_fsm.Encode.cost stg dist enc)
        (Hlp_fsm.Synth.switched_capacitance_per_cycle ~encoding:enc stg))
    [
      ("natural", Hlp_fsm.Encode.natural stg);
      ("gray", Hlp_fsm.Encode.gray stg);
      ("one-hot", Hlp_fsm.Encode.one_hot stg);
      ("annealed", Hlp_fsm.Encode.anneal ~iterations rng stg dist);
    ];
  0

let fsm_cmd =
  let machine =
    named_opt machine_enum ~default:"random"
      (Arg.info [ "machine" ] ~docv:"MACHINE" ~doc:(enum_doc machine_enum))
  in
  let iterations =
    Arg.(value & opt int 20_000 & info [ "iterations" ] ~doc:"annealing iterations")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"PRNG seed") in
  Cmd.v (Cmd.info "fsm-encode" ~doc:"Low-power state encoding of a benchmark machine")
    Term.(const fsm_encode $ machine $ iterations $ seed)

(* --- export --- *)

let format_enum =
  [ ("verilog",
     fun name net -> print_string (Hlp_logic.Export.to_verilog ~module_name:name net));
    ("dot", fun _ net -> print_string (Hlp_logic.Export.to_dot ~max_nodes:2000 net)) ]

let export (name, circuit) width format =
  format name (circuit width);
  0

let export_cmd =
  let format =
    named_opt format_enum ~default:"verilog"
      (Arg.info [ "format" ] ~docv:"FORMAT" ~doc:(enum_doc format_enum))
  in
  Cmd.v (Cmd.info "export" ~doc:"Emit a generated circuit as Verilog or dot")
    Term.(const export $ circuit ~default:"adder" $ width $ format)

(* --- info --- *)

let show_info () =
  print_endline "hlpower: high-level power modeling, estimation, and optimization";
  print_endline "reproduction of Macii/Pedram/Somenzi (DAC'97 / IEEE TCAD'98)";
  print_endline "";
  print_endline "libraries:";
  List.iter
    (fun (name, what) -> Printf.printf "  %-14s %s\n" name what)
    [
      ("hlp_util", "PRNG, statistics, least squares, bit utilities");
      ("hlp_logic", "gate library, netlists, datapath generators");
      ("hlp_bdd", "hash-consed ROBDDs (ite, quantify, compose, probability)");
      ("hlp_sim", "zero-delay and event-driven (glitch) simulation, streams");
      ("hlp_fsm", "STGs, Markov analysis, encodings, controller synthesis");
      ("hlp_rtl", "CDFGs, scheduling, allocation, multi-Vdd, Table I FIR");
      ("hlp_isa", "RISC ISA, cycle/energy machine, Tiwari model, Hsieh synthesis");
      ("hlp_power", "entropy/complexity models, macro-models, sampling, SRAM");
      ("hlp_bus", "Bus-Invert, Gray, T0, Working-Zone, Beach encodings");
      ("hlp_pm", "shutdown policies: timeout, threshold, regression, Hwang-Wu");
      ("hlp_optlogic", "precomputation, gated clocks, guarded evaluation, retiming");
    ];
  print_endline "";
  print_endline "run `dune exec bench/main.exe` for the full experiment reproduction.";
  0

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Library inventory") Term.(const show_info $ const ())

let () =
  let doc = "high-level power modeling, estimation, and optimization toolkit" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "hlpower" ~version:"1.0.0" ~doc)
          [ estimate_cmd; batch_cmd; serve_cmd; supervise_cmd; client_cmd;
            top_cmd; chaos_cmd;
            bus_cmd; pm_cmd; fsm_cmd; export_cmd;
            info_cmd ]))
