(* perfbench, the benchmark of hlpower, run from the root of the source
   tree (run.sh builds it and runs it there):

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --steadiness RUNS [--seconds S]

   One run measures one workload for S seconds on inputs generated from
   seed N and checks every answer. Human-readable lines come first; the
   last line of stdout is one JSON object with [correct], [attempted],
   [failed] and [metrics]: the end-to-end metrics of an untraced run
   (--trace 0), or the per-layer metrics of a traced one (--trace 1).

   The steadiness mode runs every workload RUNS times, with seeds 1 to
   RUNS, each run a child process as a lone run would be, and prints for
   each end-to-end metric the median, the quartiles and their spread
   beside the metric's bound in BENCHMARK.json. *)

module J = Hlp_util.Json

let print_metric (name, v, unit_) =
  Printf.printf "  %-34s %16.6f %s\n" name v unit_

let result_line (t : Util.tally) metrics =
  J.to_string ~compact:true
    (J.Obj
       [ ("correct", J.Bool (t.failed = 0));
         ("attempted", J.Int (max 1 t.attempted));
         ("failed", J.Int t.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, v, unit_) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit_) ]))
                metrics) ) ])

let run_one ~workload ~seed ~seconds ~traced =
  Printf.printf "perfbench %s, seed %d, %g s, %s\n" workload seed seconds
    (if traced then "traced" else "untraced");
  Printf.printf "machine %s\n%!" (J.to_string ~compact:true (J.Obj (Util.machine ())));
  (* the client and its daemons share one CPU; set-ups and rounds move
     them through the allowed CPUs in turn *)
  Util.place 0 "self";
  let dir = Util.work_dir () in
  let metrics, tally =
    Fun.protect ~finally:(fun () -> Util.remove_work_dir dir) @@ fun () ->
    if traced then begin
      let metrics, tally = Traced.run workload ~dir ~seed ~seconds in
      List.iter print_metric metrics;
      (metrics, tally)
    end
    else begin
      let r = E2e.run workload ~dir ~seed ~seconds in
      let metrics = E2e.metrics r in
      List.iter print_metric (metrics @ E2e.extras r);
      Printf.printf "answers %s\n" (Util.digest_hex r.E2e.digest);
      (metrics, r.E2e.tally)
    end
  in
  Option.iter (Printf.printf "first failure: %s\n") tally.Util.why;
  print_endline (result_line tally metrics)

(* --- steadiness --- *)

(* end-to-end metric bounds, from BENCHMARK.json at the source root *)
let bounds () =
  let j =
    match J.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (J.member "name" m) J.to_str_opt,
          Option.bind (J.member "bound" m) J.to_float_opt )
      with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.to_list_opt))

(* one run as a child process: the metrics of its result line *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.append [| exe |] args) in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match J.parse last with
      | Ok j when J.member "correct" j = Some (J.Bool true) ->
          Option.value ~default:(J.Obj []) (J.member "metrics" j)
      | _ -> failwith ("incorrect run: " ^ last))
  | _ -> failwith ("failed run: " ^ String.concat " " (Array.to_list args))

let steadiness ~runs ~seconds =
  let bounds = bounds () in
  let noisy = ref [] in
  List.iter
    (fun w ->
      let results =
        List.init runs (fun i ->
            child
              [| "--workload"; w; "--seed"; string_of_int (i + 1); "--seconds";
                 Printf.sprintf "%g" seconds; "--trace"; "0" |])
      in
      Printf.printf "%s: %d runs of %g s\n" w runs seconds;
      List.iter
        (fun (name, bound) ->
          let vs =
            Array.of_list
              (List.filter_map
                 (fun m ->
                   Option.bind (J.member name m) (fun v ->
                       Option.bind (J.member "value" v) J.to_float_opt))
                 results)
          in
          let q1, q2, q3 = Util.quartiles vs in
          let spread = (q3 -. q1) /. q2 in
          let verdict =
            if spread < bound /. 3.0 then "steady"
            else if spread <= bound then "within its bound"
            else "too noisy"
          in
          if spread >= bound /. 3.0 && name <> "setup_s" then
            noisy := (w ^ " " ^ name) :: !noisy;
          Printf.printf
            "  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %5.1f%%  %s\n%!"
            name q2 q1 q3 (100.0 *. spread) (100.0 *. bound) verdict)
        bounds)
    Workloads.names;
  match !noisy with
  | [] -> print_endline "steady: every spread is below a third of its bound"
  | l ->
      Printf.printf "not steady: %s\n" (String.concat ", " (List.rev l));
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and runs = ref 0 in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     perfbench --steadiness RUNS [--seconds S]"
  in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--steadiness",
        Arg.Set_int runs,
        "RUNS run every workload RUNS times and report the spreads" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  if !runs <> 0 then begin
    if !runs < 2 then fail "--steadiness needs at least 2 runs";
    steadiness ~runs:!runs ~seconds:!seconds
  end
  else if not (List.mem !workload Workloads.names) then fail "unknown --workload"
  else if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1"
  else run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
