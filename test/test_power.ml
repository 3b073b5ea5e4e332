open Hlp_power

let make_mult_dut n =
  { Macromodel.net = Hlp_logic.Generators.multiplier_circuit n; widths = [ n; n ] }

let make_adder_dut n =
  { Macromodel.net = Hlp_logic.Generators.adder_circuit n; widths = [ n; n ] }

(* --- entropy --- *)

let test_activity_bound_on_circuits () =
  (* measured average input-bit activity must respect E <= h/2 per line for
     temporally independent streams *)
  let rng = Hlp_util.Prng.create 3 in
  List.iter
    (fun p ->
      let tr = Hlp_sim.Streams.biased_bits rng ~width:16 ~p ~n:6000 in
      let act = Hlp_sim.Activity.of_trace ~width:16 tr in
      let h = Hlp_sim.Activity.mean_bit_entropy act in
      let e = Hlp_sim.Activity.mean_activity act in
      Alcotest.(check bool)
        (Printf.sprintf "E=%.3f <= h/2=%.3f at p=%.1f" e (h /. 2.0) p)
        true
        (e <= Entropy.activity_upper_bound h +. 0.02))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_h_avg_marculescu_limits () =
  (* no decay: h_avg = h_in *)
  Alcotest.(check (float 1e-6)) "no decay" 0.9
    (Entropy.h_avg_marculescu ~n:8 ~m:8 ~h_in:0.9 ~h_out:0.9);
  (* h_avg lies between h_out and h_in *)
  let h = Entropy.h_avg_marculescu ~n:16 ~m:4 ~h_in:1.0 ~h_out:0.2 in
  Alcotest.(check bool) "between boundaries" true (h > 0.2 && h < 1.0)

let test_h_avg_nemani_najm () =
  (* with H_in = n and H_out = m (maximum-entropy boundaries):
     h_avg = 2 (n + m) / (3 (n + m)) = 2/3 *)
  Alcotest.(check (float 1e-9)) "max entropy" (2.0 /. 3.0)
    (Entropy.h_avg_nemani_najm ~n:12 ~m:4 ~h_in:12.0 ~h_out:4.0)

let test_entropy_estimate_tracks_simulation () =
  (* the model estimate of E_avg should be the right order of magnitude and
     an upper-bound-ish value w.r.t. simulated average activity *)
  let net = Hlp_logic.Generators.adder_circuit 8 in
  let rng = Hlp_util.Prng.create 17 in
  let trace =
    Hlp_sim.Streams.uniform rng ~width:16 ~n:2000
  in
  List.iter
    (fun model ->
      let est = Entropy.estimate_netlist ~model net ~input_trace:trace in
      (* the estimator's compiled replay observes the outputs the scalar
         simulator gives, so the output entropy is theirs bit for bit *)
      let scalar =
        Hlp_sim.Parsim.replay ~engine:Hlp_sim.Engine.Scalar net
          ~vector:(fun i -> Array.init 16 (fun b -> Hlp_util.Bits.bit trace.(i) b))
          ~n:2000
      in
      let m = Array.length net.Hlp_logic.Netlist.outputs in
      Alcotest.(check (float 0.0)) "output entropy of the scalar outputs"
        (Hlp_sim.Activity.mean_bit_entropy
           (Hlp_sim.Activity.of_trace ~width:m scalar.Hlp_sim.Parsim.out_words))
        est.Entropy.h_out;
      (* simulate the true average activity *)
      let sim = Hlp_sim.Funcsim.create net in
      Hlp_sim.Funcsim.run sim
        (fun i -> Array.init 16 (fun b -> Hlp_util.Bits.bit trace.(i) b))
        2000;
      let actual = Hlp_sim.Funcsim.average_activity sim in
      let ratio = est.Entropy.e_avg /. actual in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.2f in [0.5, 4]" ratio)
        true
        (ratio > 0.5 && ratio < 4.0))
    [ Entropy.Marculescu; Entropy.Nemani_najm ]

let test_entropy_power_formula () =
  Alcotest.(check (float 1e-9)) "P = 0.5 V^2 f C E" 125.0
    (Entropy.power ~c_tot:100.0 ~e_avg:0.1 ~vdd:5.0 ~freq:1.0)

(* --- captot --- *)

let test_cheng_agrawal_pessimism () =
  (* exponential in n: n=16 estimate must dwarf the real capacitance of an
     adder, the documented weakness *)
  let net = Hlp_logic.Generators.adder_circuit 8 in
  let est = Captot.cheng_agrawal ~n:16 ~m:9 ~h_out:1.0 in
  Alcotest.(check bool) "pessimistic" true
    (est > 10.0 *. Hlp_logic.Netlist.total_capacitance net)

let test_ferrandi_fit_and_predict () =
  (* fit alpha/beta on a structured circuit family; prediction should
     correlate with actual total capacitance far better than Cheng-Agrawal *)
  let population =
    List.map
      (fun net -> (net, Hlp_logic.Netlist.total_capacitance net))
      [
        Hlp_logic.Generators.adder_circuit 4;
        Hlp_logic.Generators.adder_circuit 6;
        Hlp_logic.Generators.adder_circuit 8;
        Hlp_logic.Generators.adder_circuit 12;
        Hlp_logic.Generators.comparator_circuit 4;
        Hlp_logic.Generators.comparator_circuit 8;
        Hlp_logic.Generators.max_circuit 4;
        Hlp_logic.Generators.max_circuit 6;
        Hlp_logic.Generators.max_circuit 8;
        Hlp_logic.Generators.parity_circuit 8;
        Hlp_logic.Generators.parity_circuit 12;
        Hlp_logic.Generators.alu_circuit 4;
      ]
  in
  let fit = Captot.fit_ferrandi population in
  let actuals = Array.of_list (List.map snd population) in
  let preds =
    Array.of_list
      (List.map
         (fun (net, _) ->
           let open Hlp_logic in
           Captot.ferrandi_predict fit
             ~n:(Array.length net.Netlist.inputs)
             ~m:(Array.length net.Netlist.outputs)
             ~bdd_nodes:(Captot.bdd_nodes_of_netlist net)
             ~h_out:(Captot.h_out_white_noise net))
         population)
  in
  let corr = Hlp_util.Stats.correlation actuals preds in
  Alcotest.(check bool) (Printf.sprintf "correlation %.2f > 0.5" corr) true (corr > 0.5)

let test_h_out_white_noise_xor () =
  (* xor of two fair inputs is fair: entropy 1 *)
  let b = Hlp_logic.Netlist.Builder.create () in
  let i0 = Hlp_logic.Netlist.Builder.input b in
  let i1 = Hlp_logic.Netlist.Builder.input b in
  Hlp_logic.Netlist.Builder.output b "o" (Hlp_logic.Netlist.Builder.xor_ b i0 i1);
  let net = Hlp_logic.Netlist.Builder.finish b in
  Alcotest.(check (float 1e-9)) "xor entropy" 1.0 (Captot.h_out_white_noise net)

(* --- primes / complexity --- *)

let test_primes_known_function () =
  (* f = x0 x1 + x1' over 2 vars: on-set {0, 2, 3} ({00, 10, 11}) *)
  let ps = Primes.primes ~nvars:2 [ 0b00; 0b10; 0b11 ] in
  (* primes: x1' (covers 00, 10) and x0 (covers 10, 11) *)
  Alcotest.(check int) "two primes" 2 (List.length ps);
  let ess = Primes.essential_primes ~nvars:2 [ 0b00; 0b10; 0b11 ] in
  Alcotest.(check int) "both essential" 2 (List.length ess)

let test_primes_cover_complete () =
  let rng = Hlp_util.Prng.create 5 in
  for _ = 1 to 30 do
    let nvars = 4 + Hlp_util.Prng.int rng 3 in
    let on_set =
      List.filter
        (fun _ -> Hlp_util.Prng.bernoulli rng 0.4)
        (List.init (1 lsl nvars) (fun i -> i))
    in
    if on_set <> [] then begin
      let cov = Primes.cover ~nvars on_set in
      (* every on-set minterm covered, and no cube covers an off-set minterm *)
      List.iter
        (fun m ->
          Alcotest.(check bool) "covered" true
            (List.exists (fun c -> Primes.cube_covers c m) cov))
        on_set;
      let on_tbl = Hashtbl.create 64 in
      List.iter (fun m -> Hashtbl.replace on_tbl m ()) on_set;
      for m = 0 to (1 lsl nvars) - 1 do
        if not (Hashtbl.mem on_tbl m) then
          Alcotest.(check bool) "no off-set leak" false
            (List.exists (fun c -> Primes.cube_covers c m) cov)
      done
    end
  done

let test_primes_tautology () =
  let nvars = 3 in
  let all = List.init 8 (fun i -> i) in
  let ps = Primes.primes ~nvars all in
  Alcotest.(check int) "single universal prime" 1 (List.length ps);
  Alcotest.(check int) "zero literals" 0
    (Primes.cube_literals ~nvars (List.hd ps))

let test_linear_measure_extremes () =
  (* constant function: measure 0 on the on side *)
  let m = Complexity.linear_measure ~nvars:4 ~on_set:(List.init 16 (fun i -> i)) in
  Alcotest.(check (float 1e-9)) "tautology on-measure" 0.0 m.Complexity.c_on;
  (* parity: every essential prime is a minterm (n literals) *)
  let parity_on =
    List.filter (fun i -> Hlp_util.Bits.popcount i mod 2 = 1) (List.init 16 (fun i -> i))
  in
  let mp = Complexity.linear_measure ~nvars:4 ~on_set:parity_on in
  Alcotest.(check (float 1e-9)) "parity on-measure" 2.0 mp.Complexity.c_on;
  Alcotest.(check bool) "parity more complex" true (mp.Complexity.c_avg > m.Complexity.c_avg)

let test_area_regression_positive_slope () =
  let rng = Hlp_util.Prng.create 11 in
  let nvars = 6 in
  let population =
    List.init 25 (fun i ->
        let density = 0.1 +. (0.035 *. float_of_int i) in
        let on_set =
          List.filter
            (fun _ -> Hlp_util.Prng.bernoulli rng density)
            (List.init (1 lsl nvars) (fun m -> m))
        in
        (on_set, Complexity.actual_area ~nvars ~on_set))
  in
  let population = List.filter (fun (s, _) -> s <> []) population in
  let { Hlp_util.Stats.slope; r2; _ } = Complexity.fit_area_regression ~nvars population in
  Alcotest.(check bool) (Printf.sprintf "slope %.2f positive" slope) true (slope > 0.0);
  Alcotest.(check bool) (Printf.sprintf "r2 %.2f meaningful" r2) true (r2 > 0.3)

let test_ces_estimate_order_of_magnitude () =
  (* CES is implementation/data independent; should land within 4x of the
     simulated white-noise capacitance for a mid-size module *)
  let net = Hlp_logic.Generators.multiplier_circuit 8 in
  let est = Complexity.ces_switched_capacitance_estimate Complexity.ces_default net in
  let sim = Hlp_sim.Funcsim.create net in
  let rng = Hlp_util.Prng.create 13 in
  let a = Hlp_sim.Streams.uniform rng ~width:8 ~n:500 in
  let bb = Hlp_sim.Streams.uniform rng ~width:8 ~n:500 in
  Hlp_sim.Funcsim.run sim (Hlp_sim.Streams.pack_fn ~widths:[ 8; 8 ] [ a; bb ]) 500;
  let actual = Hlp_sim.Funcsim.switched_capacitance sim /. 500.0 in
  let ratio = est /. actual in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [0.25, 4]" ratio)
    true
    (ratio > 0.25 && ratio < 4.0)

let test_controller_fit () =
  let samples = List.map Complexity.controller_sample (Hlp_fsm.Stg.zoo ()) in
  let fit = Complexity.fit_controller samples in
  Alcotest.(check bool) "nonnegative coefficients" true
    (fit.Complexity.c_i >= 0.0 && fit.Complexity.c_o >= 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "r2 %.2f decent" fit.Complexity.r2)
    true (fit.Complexity.r2 > 0.5);
  (* predictions within 2x for the training machines (it is a 2-parameter
     model, the paper's "higher degree of accuracy" claim is relative) *)
  List.iter
    (fun s ->
      let p = Complexity.controller_predict fit s in
      let ratio = p /. s.Complexity.cap_per_cycle in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.2f" ratio)
        true (ratio > 0.2 && ratio < 5.0))
    samples

(* --- macromodel --- *)

let fitted_models dut =
  let obs = List.map (Macromodel.observe dut) (Macromodel.training_streams dut) in
  (obs, List.map (fun k -> (k, Macromodel.fit k dut obs)) [ Macromodel.Pfa; Macromodel.Dual_bit; Macromodel.Bitwise; Macromodel.Input_output ])

let test_macromodel_training_fit () =
  let dut = make_mult_dut 8 in
  let obs, models = fitted_models dut in
  List.iter
    (fun (k, m) ->
      let err = Macromodel.evaluate ~predict:(Macromodel.predict m) obs in
      Alcotest.(check bool)
        (Printf.sprintf "%s training error %.3f < 0.5" (Macromodel.kind_name k) err)
        true (err < 0.5))
    models

let test_streams rng width =
  List.map
    (fun mk -> mk ())
    [
      (fun () ->
        [ Hlp_sim.Streams.gaussian_walk rng ~width ~sigma:5.0 ~n:400;
          Hlp_sim.Streams.gaussian_walk rng ~width ~sigma:60.0 ~n:400 ]);
      (fun () ->
        [ Hlp_sim.Streams.correlated_bits rng ~width ~p:0.4 ~rho:0.7 ~n:400;
          Hlp_sim.Streams.biased_bits rng ~width ~p:0.6 ~n:400 ]);
      (fun () ->
        [ Hlp_sim.Streams.biased_bits rng ~width ~p:0.25 ~n:400;
          Hlp_sim.Streams.correlated_bits rng ~width ~p:0.5 ~rho:0.4 ~n:400 ]);
    ]

let test_macromodel_accuracy_ladder () =
  (* data-sensitive models must beat the constant PFA model on correlated,
     unseen streams: io on the multiplier (deep logic nesting, exactly the
     case the paper says needs the output term), bitwise on the adder
     (per-bit linear datapath) *)
  let rng = Hlp_util.Prng.create 999 in
  let mult = make_mult_dut 8 in
  let _, mult_models = fitted_models mult in
  let mult_obs = List.map (Macromodel.observe mult) (test_streams rng 8) in
  let err models obs k =
    let m = List.assoc k models in
    Macromodel.evaluate ~predict:(Macromodel.predict m) obs
  in
  let e_pfa = err mult_models mult_obs Macromodel.Pfa in
  let e_io = err mult_models mult_obs Macromodel.Input_output in
  Alcotest.(check bool)
    (Printf.sprintf "mult: io %.3f better than pfa %.3f" e_io e_pfa)
    true (e_io < e_pfa);
  let adder = make_adder_dut 8 in
  let _, adder_models = fitted_models adder in
  let adder_obs = List.map (Macromodel.observe adder) (test_streams rng 8) in
  let a_pfa = err adder_models adder_obs Macromodel.Pfa in
  let a_bw = err adder_models adder_obs Macromodel.Bitwise in
  Alcotest.(check bool)
    (Printf.sprintf "adder: bitwise %.3f better than pfa %.3f" a_bw a_pfa)
    true (a_bw < a_pfa)

let test_macromodel_3dtable () =
  let dut = make_adder_dut 8 in
  let obs = List.map (Macromodel.observe dut) (Macromodel.training_streams dut) in
  let table = Macromodel.fit_table obs in
  let err = Macromodel.evaluate ~predict:(Macromodel.predict_table table) obs in
  Alcotest.(check bool) (Printf.sprintf "table training error %.3f" err) true (err < 0.35);
  (* interpolation: an unseen intermediate stream still gets a sane value *)
  let rng = Hlp_util.Prng.create 321 in
  let unseen =
    Macromodel.observe dut
      [ Hlp_sim.Streams.biased_bits rng ~width:8 ~p:0.45 ~n:300;
        Hlp_sim.Streams.biased_bits rng ~width:8 ~p:0.55 ~n:300 ]
  in
  let p = Macromodel.predict_table table unseen.Macromodel.stats in
  Alcotest.(check bool) "interpolated positive" true (p > 0.0)

let test_macromodel_coeffs_nonnegative () =
  let dut = make_adder_dut 6 in
  let obs = List.map (Macromodel.observe dut) (Macromodel.training_streams dut) in
  List.iter
    (fun k ->
      let m = Macromodel.fit k dut obs in
      (* predictions are nonnegative for any stats because coefficients are *)
      List.iter
        (fun o ->
          Alcotest.(check bool) "pred >= 0" true
            (Macromodel.predict m o.Macromodel.stats >= 0.0))
        obs)
    [ Macromodel.Pfa; Macromodel.Dual_bit; Macromodel.Bitwise; Macromodel.Input_output ]

(* --- sampling --- *)

let prepare_cosim ?(kind = Macromodel.Bitwise) ?(n = 4000) ~train_white ~test_walk () =
  let dut = make_adder_dut 8 in
  let rng = Hlp_util.Prng.create 55 in
  let training =
    if train_white then
      [ [ Hlp_sim.Streams.uniform rng ~width:8 ~n:400;
          Hlp_sim.Streams.uniform rng ~width:8 ~n:400 ] ]
    else Macromodel.training_streams dut
  in
  let obs = List.map (Macromodel.observe dut) training in
  let model = Macromodel.fit kind dut obs in
  let traces =
    if test_walk then
      [ Hlp_sim.Streams.gaussian_walk rng ~width:8 ~sigma:4.0 ~n;
        Hlp_sim.Streams.gaussian_walk rng ~width:8 ~sigma:4.0 ~n ]
    else
      [ Hlp_sim.Streams.uniform rng ~width:8 ~n;
        Hlp_sim.Streams.uniform rng ~width:8 ~n ]
  in
  Sampling.prepare model dut traces

let test_sampling_census_on_training_distribution () =
  let t = prepare_cosim ~train_white:true ~test_walk:false () in
  let census = Sampling.census t in
  let actual = Sampling.gate_reference t in
  let err = Hlp_util.Stats.relative_error ~actual ~estimate:census.Sampling.value in
  Alcotest.(check bool) (Printf.sprintf "census in-distribution %.3f" err) true (err < 0.15)

let test_sampling_sampler_close_to_census () =
  let t = prepare_cosim ~train_white:true ~test_walk:false () in
  let census = Sampling.census t in
  let sampler = Sampling.sampler ~seed:77 t in
  let dev =
    Hlp_util.Stats.relative_error ~actual:census.Sampling.value
      ~estimate:sampler.Sampling.value
  in
  Alcotest.(check bool) (Printf.sprintf "sampler dev %.3f < 0.05" dev) true (dev < 0.05);
  (* the 50x efficiency claim *)
  let speedup =
    float_of_int census.Sampling.macro_evaluations
    /. float_of_int sampler.Sampling.macro_evaluations
  in
  Alcotest.(check bool) (Printf.sprintf "speedup %.0fx >= 15x" speedup) true (speedup >= 15.0)

let test_sampling_adaptive_fixes_bias () =
  (* white-noise-trained model on a correlated walk stream: census is
     biased; adaptive must cut the error substantially *)
  let t = prepare_cosim ~train_white:true ~test_walk:true () in
  let actual = Sampling.gate_reference t in
  let census = Sampling.census t in
  let adaptive = Sampling.adaptive ~seed:99 t in
  let e_census = Hlp_util.Stats.relative_error ~actual ~estimate:census.Sampling.value in
  let e_adaptive = Hlp_util.Stats.relative_error ~actual ~estimate:adaptive.Sampling.value in
  Alcotest.(check bool)
    (Printf.sprintf "census biased (%.3f > 0.08)" e_census)
    true (e_census > 0.08);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.3f < census %.3f" e_adaptive e_census)
    true (e_adaptive < e_census);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive small %.3f" e_adaptive)
    true (e_adaptive < 0.08);
  Alcotest.(check bool) "few gate cycles" true (adaptive.Sampling.gate_cycles <= 50)

(* --- memory model --- *)

let test_memory_components_positive () =
  let s = Memory_model.default_sram ~n:12 ~k:6 in
  List.iter
    (fun (name, v) -> Alcotest.(check bool) name true (v > 0.0))
    [
      ("cells", Memory_model.cell_array_energy s);
      ("decoder", Memory_model.row_decoder_energy s);
      ("wordline", Memory_model.word_line_energy s);
      ("colsel", Memory_model.column_select_energy s);
      ("sense", Memory_model.sense_amp_energy s);
    ]

let test_memory_organization_tradeoff () =
  (* extreme aspect ratios must both be worse than the optimum *)
  let n = 14 in
  let k_opt = Memory_model.optimal_k ~n in
  Alcotest.(check bool) "optimum strictly inside" true (k_opt > 0 && k_opt < n);
  let e k = Memory_model.read_energy (Memory_model.default_sram ~n ~k) in
  Alcotest.(check bool) "tall-narrow worse" true (e 0 > e k_opt);
  Alcotest.(check bool) "short-wide worse" true (e n > e k_opt)

let test_memory_grows_with_size () =
  let e n = Memory_model.read_energy (Memory_model.default_sram ~n ~k:(Memory_model.optimal_k ~n)) in
  Alcotest.(check bool) "bigger memory costs more" true (e 16 > e 10)

let test_htree_clock () =
  let c4 = Memory_model.htree_clock_capacitance ~levels:4 ~c_wire_root:10.0 in
  let c8 = Memory_model.htree_clock_capacitance ~levels:8 ~c_wire_root:10.0 in
  Alcotest.(check bool) "more levels, more cap" true (c8 > c4);
  Alcotest.(check bool) "positive" true (c4 > 0.0)

(* --- cycle-accurate macro-models --- *)

let cycle_setup () =
  let dut = make_adder_dut 8 in
  let rng = Hlp_util.Prng.create 42 in
  let mk n =
    [ Hlp_sim.Streams.gaussian_walk rng ~width:8 ~sigma:15.0 ~n;
      Hlp_sim.Streams.uniform rng ~width:8 ~n ]
  in
  let train = Cyclemodel.collect dut (mk 1500) in
  let test = Cyclemodel.collect dut (mk 1000) in
  (train, test)

let test_cyclemodel_qiu_accuracy () =
  let train, test = cycle_setup () in
  let qiu = Cyclemodel.fit_qiu train in
  let a =
    Cyclemodel.accuracy ~predicted:(Cyclemodel.predict_qiu qiu test)
      ~actual:(Cyclemodel.reference test)
  in
  Alcotest.(check bool)
    (Printf.sprintf "avg error %.3f < 0.10" a.Cyclemodel.average_error)
    true (a.Cyclemodel.average_error < 0.10);
  Alcotest.(check bool)
    (Printf.sprintf "cycle error %.3f < 0.25" a.Cyclemodel.cycle_error)
    true (a.Cyclemodel.cycle_error < 0.25);
  Alcotest.(check bool) "selected a handful of variables" true
    (Cyclemodel.qiu_variables qiu >= 2)

let test_cyclemodel_qiu_beats_clusters () =
  let train, test = cycle_setup () in
  let qiu = Cyclemodel.fit_qiu train in
  let clus = Cyclemodel.fit_clusters train in
  let err pred =
    (Cyclemodel.accuracy ~predicted:pred ~actual:(Cyclemodel.reference test))
      .Cyclemodel.cycle_error
  in
  let eq = err (Cyclemodel.predict_qiu qiu test) in
  let ec = err (Cyclemodel.predict_clusters clus test) in
  Alcotest.(check bool)
    (Printf.sprintf "qiu %.3f <= clusters %.3f" eq ec)
    true (eq <= ec)

let test_cyclemodel_reference_totals () =
  (* per-cycle reference powers must sum to (almost) the stream total *)
  let dut = make_adder_dut 6 in
  let rng = Hlp_util.Prng.create 7 in
  let traces =
    [ Hlp_sim.Streams.uniform rng ~width:6 ~n:500;
      Hlp_sim.Streams.uniform rng ~width:6 ~n:500 ]
  in
  let t = Cyclemodel.collect dut traces in
  Alcotest.(check bool) "positive cycle count" true (Cyclemodel.num_cycles t > 400);
  Array.iter
    (fun p -> Alcotest.(check bool) "per-cycle power nonnegative" true (p >= 0.0))
    (Cyclemodel.reference t)

(* --- probabilistic propagation + Monte Carlo --- *)

let test_propagate_exact_on_trees () =
  (* on fanout-free logic the independence assumption is exact *)
  let module B = Hlp_logic.Netlist.Builder in
  let b = B.create () in
  let i0 = B.input b and i1 = B.input b and i2 = B.input b and i3 = B.input b in
  let a = B.and_ b [ i0; i1 ] in
  let o = B.or_ b [ a; B.xor_ b i2 i3 ] in
  B.output b "o" o;
  let net = B.finish b in
  let stats = Probprop.propagate net in
  Alcotest.(check (float 1e-9)) "P(and)" 0.25 stats.Probprop.prob.(a);
  (* P(or) = 1 - (1-1/4)(1-1/2) = 5/8 *)
  Alcotest.(check (float 1e-9)) "P(or of and, xor)" 0.625 stats.Probprop.prob.(o)

let test_propagate_tracks_simulation () =
  (* per-node probabilities within a few percent of simulation on an adder *)
  let net = Hlp_logic.Generators.adder_circuit 6 in
  let stats = Probprop.propagate net in
  let sim = Hlp_sim.Funcsim.create net in
  let rng = Hlp_util.Prng.create 3 in
  let cycles = 6000 in
  Hlp_sim.Funcsim.run sim (fun _ -> Array.init 12 (fun _ -> Hlp_util.Prng.bool rng)) cycles;
  let highs = Hlp_sim.Funcsim.high_counts sim in
  let errs = ref [] in
  Array.iteri
    (fun i c ->
      let measured = float_of_int c /. float_of_int cycles in
      errs := abs_float (measured -. stats.Probprop.prob.(i)) :: !errs)
    highs;
  let worst = List.fold_left max 0.0 !errs in
  (* reconvergent fanout (the shared x xor y term of each full adder) makes
     the independence assumption approximate; the classic error band *)
  Alcotest.(check bool) (Printf.sprintf "worst prob error %.3f < 0.12" worst) true
    (worst < 0.12)

let test_propagate_capacitance_estimate () =
  (* the propagated capacitance should land within 2x of simulation for an
     adder (reconvergence makes it approximate, not wild) *)
  let net = Hlp_logic.Generators.adder_circuit 8 in
  let est = Probprop.estimate_capacitance net (Probprop.propagate net) in
  let sim = Hlp_sim.Funcsim.create net in
  let rng = Hlp_util.Prng.create 5 in
  Hlp_sim.Funcsim.run sim (fun _ -> Array.init 16 (fun _ -> Hlp_util.Prng.bool rng)) 3000;
  let actual = Hlp_sim.Funcsim.switched_capacitance sim /. 3000.0 in
  let ratio = est /. actual in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [0.5, 2]" ratio) true
    (ratio > 0.5 && ratio < 2.0)

let test_monte_carlo_stopping () =
  let net = Hlp_logic.Generators.multiplier_circuit 6 in
  let mc = Probprop.monte_carlo ~relative_precision:0.05 net in
  (* the stopping rule must fire well before the cap, and the estimate must
     be consistent with a long reference run *)
  Alcotest.(check bool) "stopped early" true (mc.Probprop.cycles_used < 100_000);
  let sim = Hlp_sim.Funcsim.create net in
  let rng = Hlp_util.Prng.create 99 in
  Hlp_sim.Funcsim.run sim (fun _ -> Array.init 12 (fun _ -> Hlp_util.Prng.bool rng)) 20_000;
  let reference = Hlp_sim.Funcsim.switched_capacitance sim /. 20_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f within 10%% of reference %.1f" mc.Probprop.estimate reference)
    true
    (Hlp_util.Stats.relative_error ~actual:reference ~estimate:mc.Probprop.estimate < 0.10)

let test_monte_carlo_tighter_needs_more () =
  let net = Hlp_logic.Generators.adder_circuit 8 in
  let loose = Probprop.monte_carlo ~relative_precision:0.10 ~seed:7 net in
  let tight = Probprop.monte_carlo ~relative_precision:0.02 ~seed:7 net in
  Alcotest.(check bool) "tighter precision costs cycles" true
    (tight.Probprop.cycles_used >= loose.Probprop.cycles_used)

(* batch means of one seeded Monte Carlo run, exactly as the scalar
   stopping loop computes them (cumulative-capacitance differences) *)
let batch_means_of_run ~seed ~batches ~batch net =
  let rng = Hlp_util.Prng.create seed in
  let sim = Hlp_sim.Funcsim.create net in
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let prev = ref 0.0 in
  Array.init batches (fun _ ->
      for _ = 1 to batch do
        Hlp_sim.Funcsim.step sim (Array.init nin (fun _ -> Hlp_util.Prng.bool rng))
      done;
      let cap = Hlp_sim.Funcsim.switched_capacitance sim in
      let m = (cap -. !prev) /. float_of_int batch in
      prev := cap;
      m)

let test_monte_carlo_interval_coverage () =
  (* The headline bug this PR fixes. The stopping rule can fire on as few
     as 3 batch means, and the seed implementation built its "95%" interval
     with the normal z = 1.96 multiplier; the correct 95% multiplier at
     df = 2 is t_{2,0.975} = 4.303, so the z-interval misses the long-run
     mean far more than 5% of the time (theoretical coverage ~81%).

     Empirical check over 200 independently seeded 3-batch runs: the
     Student-t interval must cover the long-run reference at least 90% of
     the time, and the old z-interval must demonstrably stay below 90% —
     i.e. this test fails if ci_half_width is reverted to 1.96. *)
  let net = Hlp_logic.Generators.adder_circuit 6 in
  let reference =
    let sim = Hlp_sim.Funcsim.create net in
    let rng = Hlp_util.Prng.create 999 in
    let refcycles = 50_000 in
    Hlp_sim.Funcsim.run sim
      (fun _ -> Array.init 12 (fun _ -> Hlp_util.Prng.bool rng))
      refcycles;
    Hlp_sim.Funcsim.switched_capacitance sim /. float_of_int refcycles
  in
  let runs = 200 in
  let t_cov = ref 0 and z_cov = ref 0 in
  for seed = 1 to runs do
    let means = batch_means_of_run ~seed ~batches:3 ~batch:30 net in
    let t_lo, t_hi = Hlp_util.Stats.confidence_interval ~level:0.95 ~df:2 means in
    let z_lo, z_hi = Hlp_util.Stats.confidence_interval_95 means in
    if t_lo <= reference && reference <= t_hi then incr t_cov;
    if z_lo <= reference && reference <= z_hi then incr z_cov
  done;
  let t_frac = float_of_int !t_cov /. float_of_int runs in
  let z_frac = float_of_int !z_cov /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "t-interval coverage %.2f >= 0.90" t_frac)
    true (t_frac >= 0.90);
  Alcotest.(check bool)
    (Printf.sprintf "z-interval coverage %.2f < 0.90 (the fixed bug)" z_frac)
    true (z_frac < 0.90)

(* --- adaptive estimator on degenerate activity (ratio-estimator fallback) --- *)

let test_adaptive_sparse_activity_falls_back_to_census () =
  (* One busy transition in 10^5 idle ones: the 40-cycle sample almost
     surely sees only idle cycles, so the sampled macro sum is zero and the
     ratio is undefined. The estimate must degrade to the census value
     (regression: the seed reported 0 power for this stream). *)
  let n = 100_000 in
  let macro_values = Array.make n 0.0 in
  let gate_values = Array.make n 0.0 in
  macro_values.(0) <- 500.0;
  gate_values.(0) <- 480.0;
  let t = Sampling.of_arrays ~macro_values ~gate_values in
  let census = (Sampling.census t).Sampling.value in
  let est = (Sampling.adaptive ~seed:1 t).Sampling.value in
  Alcotest.(check bool) "census positive" true (census > 0.0);
  Alcotest.(check (float 1e-12)) "adaptive degrades to census" census est

let test_adaptive_all_zero_trace () =
  (* fully idle trace: zero power is the right answer and must come out
     finite (no 0/0) *)
  let t =
    Sampling.of_arrays ~macro_values:(Array.make 50 0.0)
      ~gate_values:(Array.make 50 0.0)
  in
  let est = (Sampling.adaptive ~seed:3 t).Sampling.value in
  Alcotest.(check bool) "finite" true (Float.is_finite est);
  Alcotest.(check (float 0.0)) "zero" 0.0 est

(* --- the Fig. 1 flow --- *)

let test_flow_report () =
  let rng = Hlp_util.Prng.create 12 in
  let components =
    [
      Flow.Datapath
        {
          name = "adder";
          dut = make_adder_dut 8;
          traces =
            [ Hlp_sim.Streams.uniform rng ~width:8 ~n:1000;
              Hlp_sim.Streams.uniform rng ~width:8 ~n:1000 ];
        };
      Flow.Controller { name = "ctrl"; stg = Hlp_fsm.Stg.memory_controller () };
      Flow.Glue
        { name = "glue";
          net = Hlp_logic.Generators.random_logic (Hlp_util.Prng.create 31) ~inputs:6 ~outputs:3 ~gates:50 };
    ]
  in
  let report = Flow.estimate components in
  Alcotest.(check int) "one line per component" 3 (List.length report.Flow.lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l.Flow.component ^ " estimate positive") true
        (l.Flow.estimate > 0.0);
      Alcotest.(check bool) (l.Flow.component ^ " reference positive") true
        (l.Flow.reference > 0.0))
    report.Flow.lines;
  (* the headline claim: the level-by-level total lands near gate level *)
  Alcotest.(check bool)
    (Printf.sprintf "total error %.1f%% < 40%%" (100.0 *. report.Flow.total_error))
    true
    (report.Flow.total_error < 0.40);
  (* the datapath macro-model line should be the tightest *)
  let adder_line = List.find (fun l -> l.Flow.component = "adder") report.Flow.lines in
  Alcotest.(check bool) "macro-model line tight" true (adder_line.Flow.error < 0.15)

let qcheck_primes_cover_random =
  QCheck.Test.make ~name:"greedy cover covers exactly the on-set" ~count:40
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (nvars, seed) ->
      let rng = Hlp_util.Prng.create seed in
      let on_set =
        List.filter
          (fun _ -> Hlp_util.Prng.bernoulli rng 0.5)
          (List.init (1 lsl nvars) (fun i -> i))
      in
      on_set = []
      ||
      let cov = Primes.cover ~nvars on_set in
      let covered m = List.exists (fun c -> Primes.cube_covers c m) cov in
      List.for_all covered on_set
      && List.for_all
           (fun m -> List.mem m on_set || not (covered m))
           (List.init (1 lsl nvars) (fun i -> i)))

let suite =
  [
    Alcotest.test_case "activity <= h/2" `Quick test_activity_bound_on_circuits;
    Alcotest.test_case "marculescu h_avg" `Quick test_h_avg_marculescu_limits;
    Alcotest.test_case "nemani-najm h_avg" `Quick test_h_avg_nemani_najm;
    Alcotest.test_case "entropy estimate tracks sim" `Quick test_entropy_estimate_tracks_simulation;
    Alcotest.test_case "entropy power formula" `Quick test_entropy_power_formula;
    Alcotest.test_case "cheng-agrawal pessimism" `Quick test_cheng_agrawal_pessimism;
    Alcotest.test_case "ferrandi fit" `Quick test_ferrandi_fit_and_predict;
    Alcotest.test_case "h_out white noise xor" `Quick test_h_out_white_noise_xor;
    Alcotest.test_case "primes known function" `Quick test_primes_known_function;
    Alcotest.test_case "primes cover complete" `Quick test_primes_cover_complete;
    Alcotest.test_case "primes tautology" `Quick test_primes_tautology;
    Alcotest.test_case "linear measure extremes" `Quick test_linear_measure_extremes;
    Alcotest.test_case "area regression" `Quick test_area_regression_positive_slope;
    Alcotest.test_case "ces order of magnitude" `Quick test_ces_estimate_order_of_magnitude;
    Alcotest.test_case "controller fit" `Slow test_controller_fit;
    Alcotest.test_case "macromodel training fit" `Slow test_macromodel_training_fit;
    Alcotest.test_case "macromodel accuracy ladder" `Slow test_macromodel_accuracy_ladder;
    Alcotest.test_case "macromodel 3d table" `Quick test_macromodel_3dtable;
    Alcotest.test_case "macromodel nonnegative" `Quick test_macromodel_coeffs_nonnegative;
    Alcotest.test_case "sampling census in-distribution" `Quick test_sampling_census_on_training_distribution;
    Alcotest.test_case "sampling sampler vs census" `Quick test_sampling_sampler_close_to_census;
    Alcotest.test_case "sampling adaptive fixes bias" `Quick test_sampling_adaptive_fixes_bias;
    Alcotest.test_case "memory components" `Quick test_memory_components_positive;
    Alcotest.test_case "memory organization tradeoff" `Quick test_memory_organization_tradeoff;
    Alcotest.test_case "memory grows with size" `Quick test_memory_grows_with_size;
    Alcotest.test_case "htree clock" `Quick test_htree_clock;
    Alcotest.test_case "flow report" `Slow test_flow_report;
    Alcotest.test_case "propagate exact on trees" `Quick test_propagate_exact_on_trees;
    Alcotest.test_case "propagate tracks simulation" `Quick test_propagate_tracks_simulation;
    Alcotest.test_case "propagate capacitance" `Quick test_propagate_capacitance_estimate;
    Alcotest.test_case "monte carlo stopping" `Quick test_monte_carlo_stopping;
    Alcotest.test_case "monte carlo precision" `Quick test_monte_carlo_tighter_needs_more;
    Alcotest.test_case "monte carlo t coverage" `Slow test_monte_carlo_interval_coverage;
    Alcotest.test_case "adaptive sparse activity" `Quick test_adaptive_sparse_activity_falls_back_to_census;
    Alcotest.test_case "adaptive all-zero trace" `Quick test_adaptive_all_zero_trace;
    Alcotest.test_case "cyclemodel qiu accuracy" `Quick test_cyclemodel_qiu_accuracy;
    Alcotest.test_case "cyclemodel qiu beats clusters" `Quick test_cyclemodel_qiu_beats_clusters;
    Alcotest.test_case "cyclemodel reference" `Quick test_cyclemodel_reference_totals;
    QCheck_alcotest.to_alcotest qcheck_primes_cover_random;
  ]
