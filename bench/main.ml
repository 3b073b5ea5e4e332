(* Benchmark harness: regenerates every table and figure of the paper
   (sections E1-E21, see DESIGN.md and EXPERIMENTS.md), then times the
   computational kernel behind each experiment with Bechamel. *)

(* one span per experiment group: with --trace, the exported timeline
   shows where a full reproduction run spends its time *)
let traced name f = Hlp_util.Trace.span name f

let experiments () =
  print_endline "=================================================================";
  print_endline " hlpower experiment reproduction";
  print_endline " Macii/Pedram/Somenzi, High-Level Power Modeling, Estimation,";
  print_endline " and Optimization (DAC'97 / IEEE TCAD'98)";
  print_endline "=================================================================";
  print_newline ();
  traced "bench.figures" Exp_figures.all;
  traced "bench.estimation" Exp_estimation.all;
  traced "bench.synthesis" Exp_synthesis.all;
  traced "bench.engines" (fun () ->
      if not (Gate.check Gate.Engines (Exp_engines.measure Gate.Engines)) then
        exit 1)

(* --- bechamel timing of each experiment's kernel --- *)

open Bechamel
open Toolkit

let kernels () =
  let nets = lazy (Hlp_logic.Generators.multiplier_circuit 8) in
  let fir = lazy (Hlp_rtl.Fir.build ~width:8 ~constant_mult:true ()) in
  let stg = lazy (Hlp_fsm.Stg.reactive ~wait_states:4 ~burst_states:4) in
  let cmp = lazy (Hlp_logic.Generators.comparator_circuit 8) in
  let guard_net = lazy (Hlp_optlogic.Guard.demo_circuit 8) in
  let pm_sessions = lazy (Hlp_pm.Policy.workload ~sessions:2000 (Hlp_util.Prng.create 1)) in
  let matmul = lazy (Hlp_isa.Programs.matmul ~n:8) in
  let adder_dut =
    lazy { Hlp_power.Macromodel.net = Hlp_logic.Generators.adder_circuit 8; widths = [ 8; 8 ] }
  in
  let seq_trace = lazy (Hlp_bus.Traces.sequential () ~width:16 ~n:2000) in
  let diffeq = lazy (Hlp_rtl.Cdfg.diffeq ()) in
  [
    Test.make ~name:"E1_table1_fir_sim" (Staged.stage (fun () ->
        ignore (Hlp_rtl.Fir.measure ~cycles:20 (Lazy.force fir))));
    Test.make ~name:"E2_fig2_machine_run" (Staged.stage (fun () ->
        let prog, mem = Lazy.force matmul in
        ignore (Hlp_isa.Machine.run ~mem_init:mem prog)));
    Test.make ~name:"E3_fig3_policy_sim" (Staged.stage (fun () ->
        ignore
          (Hlp_pm.Policy.simulate Hlp_pm.Policy.default_device Hlp_pm.Policy.Regression
             (Lazy.force pm_sessions))));
    Test.make ~name:"E4_fig4_schedule" (Staged.stage (fun () ->
        ignore (Hlp_rtl.Schedule.asap (Hlp_rtl.Cdfg.poly3_direct ()))));
    Test.make ~name:"E6_fig6_precompute_bdd" (Staged.stage (fun () ->
        ignore
          (Hlp_optlogic.Precompute.analyze (Lazy.force cmp) ~output:"lt" ~subset:[ 7; 15 ])));
    Test.make ~name:"E7_fig7_gated_clock" (Staged.stage (fun () ->
        ignore (Hlp_optlogic.Gated_clock.evaluate ~cycles:400 (Lazy.force stg))));
    Test.make ~name:"E8_fig8_guard_odc" (Staged.stage (fun () ->
        ignore (Hlp_optlogic.Guard.find_candidates (Lazy.force guard_net))));
    Test.make ~name:"E9_fig9_eventsim" (Staged.stage (fun () ->
        let net = Lazy.force nets in
        let sim = Hlp_sim.Eventsim.create net in
        let rng = Hlp_util.Prng.create 1 in
        Hlp_sim.Eventsim.run sim (fun _ -> Array.init 16 (fun _ -> Hlp_util.Prng.bool rng)) 50));
    Test.make ~name:"E10_tiwari_features" (Staged.stage (fun () ->
        let prog, mem = Lazy.force matmul in
        let r = Hlp_isa.Machine.run ~mem_init:mem prog in
        ignore (Hlp_isa.Tiwari.features r.Hlp_isa.Machine.counters)));
    Test.make ~name:"E11_entropy_estimate" (Staged.stage (fun () ->
        let rng = Hlp_util.Prng.create 2 in
        let trace = Hlp_sim.Streams.uniform rng ~width:16 ~n:200 in
        ignore
          (Hlp_power.Entropy.estimate_netlist ~model:Hlp_power.Entropy.Marculescu
             (Hlp_logic.Generators.adder_circuit 8) ~input_trace:trace)));
    Test.make ~name:"E12_captot_bdd_count" (Staged.stage (fun () ->
        ignore (Hlp_power.Captot.bdd_nodes_of_netlist (Lazy.force cmp))));
    Test.make ~name:"E13_tyagi_markov" (Staged.stage (fun () ->
        let stg = Lazy.force stg in
        ignore (Hlp_fsm.Tyagi.report stg (Hlp_fsm.Markov.analyze stg))));
    Test.make ~name:"E14_primes_cover" (Staged.stage (fun () ->
        ignore (Hlp_power.Primes.cover ~nvars:6 (List.init 32 (fun i -> 2 * i)))));
    Test.make ~name:"E15_macromodel_observe" (Staged.stage (fun () ->
        let dut = Lazy.force adder_dut in
        let rng = Hlp_util.Prng.create 3 in
        ignore
          (Hlp_power.Macromodel.observe dut
             [ Hlp_sim.Streams.uniform rng ~width:8 ~n:200;
               Hlp_sim.Streams.uniform rng ~width:8 ~n:200 ])));
    Test.make ~name:"E16_sampling_prepare" (Staged.stage (fun () ->
        let dut = Lazy.force adder_dut in
        let rng = Hlp_util.Prng.create 4 in
        let obs =
          Hlp_power.Macromodel.observe dut
            [ Hlp_sim.Streams.uniform rng ~width:8 ~n:100;
              Hlp_sim.Streams.uniform rng ~width:8 ~n:100 ]
        in
        let model = Hlp_power.Macromodel.fit Hlp_power.Macromodel.Bitwise dut [ obs ] in
        ignore
          (Hlp_power.Sampling.prepare model dut
             [ Hlp_sim.Streams.uniform rng ~width:8 ~n:300;
               Hlp_sim.Streams.uniform rng ~width:8 ~n:300 ])));
    Test.make ~name:"E17_bus_encode" (Staged.stage (fun () ->
        ignore
          (Hlp_bus.Encoding.evaluate Hlp_bus.Encoding.T0 ~width:16 (Lazy.force seq_trace))));
    Test.make ~name:"E18_allocation" (Staged.stage (fun () ->
        let g = Lazy.force diffeq in
        let sched =
          Hlp_rtl.Schedule.list_schedule g
            ~resources:[ (Hlp_rtl.Module_energy.Multiplier, 2) ]
        in
        let prof = Hlp_rtl.Allocate.profile ~samples:30 g in
        ignore (Hlp_rtl.Allocate.bind_low_power g sched prof)));
    Test.make ~name:"E19_voltage_schedule" (Staged.stage (fun () ->
        let g = Lazy.force diffeq in
        let base = Hlp_rtl.Voltage.single_voltage g in
        ignore (Hlp_rtl.Voltage.schedule g ~deadline:(base.Hlp_rtl.Voltage.total_delay *. 2.0))));
    Test.make ~name:"E20_fsm_anneal" (Staged.stage (fun () ->
        let stg = Lazy.force stg in
        let dist = Hlp_fsm.Markov.analyze stg in
        ignore (Hlp_fsm.Encode.anneal ~iterations:2000 (Hlp_util.Prng.create 9) stg dist)));
    Test.make ~name:"E21_memory_model" (Staged.stage (fun () ->
        ignore (Hlp_power.Memory_model.optimal_k ~n:14)));
  ]

let run_bechamel () =
  print_endline "=================================================================";
  print_endline " kernel timings (Bechamel, monotonic clock)";
  print_endline "=================================================================";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let tests = Test.make_grouped ~name:"hlpower" (kernels ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-40s %s/run\n" name pretty)
    rows

let () =
  let tracing = Array.mem "--trace" Sys.argv in
  if tracing then Hlp_util.Trace.enable ();
  let flush_trace () =
    if tracing then begin
      Hlp_util.Trace.write ~path:"BENCH_trace.json";
      Printf.printf "wrote BENCH_trace.json (%d events, %d dropped)\n"
        (Hlp_util.Trace.event_count ())
        (Hlp_util.Trace.dropped ())
    end
  in
  (* each run measures its experiments, then the one gate evaluates its
     table against what they measured (see Gate) *)
  match
    List.find_opt
      (fun run -> Array.mem ("--" ^ Gate.run_name run) Sys.argv)
      Gate.every
  with
  | Some run ->
      let ok = Gate.check run (Exp_engines.measure run) in
      flush_trace ();
      if not ok then exit 1
  | None ->
      experiments ();
      run_bechamel ();
      flush_trace ();
      print_endline "\nall experiments completed."
