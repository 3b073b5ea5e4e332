(* E33: simulation-engine throughput — scalar vs bit-parallel vs compiled.

   The sampler workload of E16 (multiplier 8 DUT, bitwise macro-model
   trained on white noise, 10^4-cycle stream) is replayed through each
   engine of Hlp_sim.Engine. The bit-parallel engine packs 63 trace
   transitions into each word-wide Bitsim step, so the gate-level replay
   that dominates cosimulation preparation runs ~63x fewer gate
   evaluations; the estimates must not move (sampler/census bit-identical,
   adaptive/gate reference to round-off).

   Besides the printed tables, the run emits BENCH_engines.json: per-engine
   cycles/second and speedup, the Monte Carlo convergence trajectories
   (running mean and Student-t confidence half-width after every batch,
   captured through Hlp_util.Telemetry), and a telemetry-overhead
   measurement on the replay workload. *)

open Hlp_util

let fmt = Table.fmt_float

(* monotonic: an NTP step mid-benchmark must not fabricate a speedup *)
let time f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

(* the E16 sampler workload: macro-model trained on white noise, long
   uniform evaluation stream *)
let sampler_workload ~n =
  let dut =
    { Hlp_power.Macromodel.net = Hlp_logic.Generators.multiplier_circuit 8;
      widths = [ 8; 8 ] }
  in
  let rng = Prng.create 55 in
  let training =
    [ [ Hlp_sim.Streams.uniform rng ~width:8 ~n:400;
        Hlp_sim.Streams.uniform rng ~width:8 ~n:400 ] ]
  in
  let obs = List.map (Hlp_power.Macromodel.observe dut) training in
  let model = Hlp_power.Macromodel.fit Hlp_power.Macromodel.Bitwise dut obs in
  let traces =
    [ Hlp_sim.Streams.uniform rng ~width:8 ~n;
      Hlp_sim.Streams.uniform rng ~width:8 ~n ]
  in
  (model, dut, traces)

(* --- collected results (feed both the printed tables and the JSON) --- *)

type engine_result = {
  engine : string;
  replay_s : float;
  prepare_s : float;
  kcycles_per_s : float;
  speedup_vs_scalar : float;
  gate_ref : float;
  sampler_est : float;
  adaptive_est : float;
}

let engine_obj r =
  Json.Obj
    [ ("engine", Json.Str r.engine);
      ("replay_s", Json.Float r.replay_s);
      ("prepare_s", Json.Float r.prepare_s);
      ("kcycles_per_s", Json.Float r.kcycles_per_s);
      ("speedup_vs_scalar", Json.Float r.speedup_vs_scalar);
      ("gate_reference", Json.Float r.gate_ref);
      ("sampler_estimate", Json.Float r.sampler_est);
      ("adaptive_estimate", Json.Float r.adaptive_est) ]

let e33_throughput ?(n = 10_000) () =
  Trace.span "bench.e33_throughput" @@ fun () ->
  let model, dut, traces = sampler_workload ~n in
  let widths = dut.Hlp_power.Macromodel.widths in
  let vector i = Hlp_sim.Streams.pack ~widths traces i in
  let measure engine =
    (* replay = the gate-level simulation proper (the engine under test) *)
    let replay, replay_s =
      time (fun () ->
          Hlp_sim.Parsim.replay ~engine dut.Hlp_power.Macromodel.net ~vector ~n)
    in
    ignore replay;
    (* prepare = replay + macro-model window evaluation (the whole
       cosimulation setup the estimators run on) *)
    let t, prepare_s =
      time (fun () -> Hlp_power.Sampling.prepare ~engine model dut traces)
    in
    (engine, replay_s, t, prepare_s)
  in
  let measured = List.map measure Hlp_sim.Engine.all in
  let scalar_replay_s =
    match measured with (_, s, _, _) :: _ -> s | [] -> assert false
  in
  let scalar_t = match measured with (_, _, t, _) :: _ -> t | [] -> assert false in
  let results =
    List.map
      (fun (engine, replay_s, t, prepare_s) ->
        ( { engine = Hlp_sim.Engine.to_string engine;
            replay_s;
            prepare_s;
            kcycles_per_s = float_of_int n /. replay_s /. 1e3;
            speedup_vs_scalar = scalar_replay_s /. replay_s;
            gate_ref = Hlp_power.Sampling.gate_reference t;
            sampler_est =
              (Hlp_power.Sampling.sampler ~seed:77 t).Hlp_power.Sampling.value;
            adaptive_est =
              (Hlp_power.Sampling.adaptive ~seed:99 t).Hlp_power.Sampling.value },
          (engine, t) ))
      measured
  in
  let rows =
    List.map
      (fun (r, _) ->
        [ r.engine;
          Printf.sprintf "%.1f" (r.replay_s *. 1e3);
          Printf.sprintf "%.0f" r.kcycles_per_s;
          Printf.sprintf "%.1fx" r.speedup_vs_scalar;
          Printf.sprintf "%.1f" (r.prepare_s *. 1e3);
          fmt r.gate_ref;
          fmt r.sampler_est;
          fmt r.adaptive_est ])
      results
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E33: engine throughput on the E16 sampler workload (multiplier 8, %d cycles)"
         n)
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right ]
    ~header:
      [ "engine"; "replay ms"; "kcycle/s"; "speedup"; "prepare ms";
        "gate ref"; "sampler"; "adaptive" ]
    rows;
  (* identical-estimate contract across engines *)
  let pinned = Hlp_power.Sampling.sampler ~seed:77 scalar_t in
  List.iter
    (fun (_, (engine, t)) ->
      let s = Hlp_power.Sampling.sampler ~seed:77 t in
      if s.Hlp_power.Sampling.value <> pinned.Hlp_power.Sampling.value then
        failwith
          (Printf.sprintf "E33: %s sampler estimate diverged from scalar"
             (Hlp_sim.Engine.to_string engine));
      let rel =
        Stats.relative_error
          ~actual:(Hlp_power.Sampling.gate_reference scalar_t)
          ~estimate:(Hlp_power.Sampling.gate_reference t)
      in
      if rel > 1e-9 then
        failwith
          (Printf.sprintf "E33: %s gate reference diverged from scalar"
             (Hlp_sim.Engine.to_string engine)))
    results;
  print_endline "estimates identical across engines: yes";
  print_newline ();
  Json.List (List.map (fun (r, _) -> engine_obj r) results)

type mc_result = {
  mc_circuit : string;
  mc_engine : string;
  mc_estimate : float;
  mc_half_interval : float;
  mc_cycles_used : int;
  mc_batches : int;
  mc_seconds : float;
  running_mean : float array;
  ci_half_width : float array;
}

let mc_obj r =
  Json.Obj
    [ ("circuit", Json.Str r.mc_circuit);
      ("engine", Json.Str r.mc_engine);
      ("estimate", Json.Float r.mc_estimate);
      ("half_interval_t95", Json.Float r.mc_half_interval);
      ("cycles_used", Json.Int r.mc_cycles_used);
      ("batches", Json.Int r.mc_batches);
      ("seconds", Json.Float r.mc_seconds);
      ("cycles_per_s", Json.Float (float_of_int r.mc_cycles_used /. r.mc_seconds));
      (* one point per stopping-rule evaluation, from batch 2 on *)
      ("running_mean", Gate.floats r.running_mean);
      ("ci_half_width", Gate.floats r.ci_half_width) ]

(* Run one Monte Carlo estimation with telemetry enabled and capture the
   convergence trajectory (running mean and 95% Student-t half-width after
   each stopping-rule evaluation) from the probprop series. *)
let mc_capture ~circuit ~engine net =
  Telemetry.reset ();
  Telemetry.enable ();
  let mc, s =
    time (fun () -> Hlp_power.Probprop.monte_carlo ~seed:47 ~engine net)
  in
  let running_mean =
    Telemetry.observations (Telemetry.series "probprop.running_mean")
  in
  let ci_half_width =
    Telemetry.observations (Telemetry.series "probprop.ci_half_width")
  in
  Telemetry.disable ();
  Telemetry.reset ();
  {
    mc_circuit = circuit;
    mc_engine = Hlp_sim.Engine.to_string engine;
    mc_estimate = mc.Hlp_power.Probprop.estimate;
    mc_half_interval = mc.Hlp_power.Probprop.half_interval;
    mc_cycles_used = mc.Hlp_power.Probprop.cycles_used;
    mc_batches = mc.Hlp_power.Probprop.batches;
    mc_seconds = s;
    running_mean;
    ci_half_width;
  }

let e33_monte_carlo () =
  Trace.span "bench.e33_monte_carlo" @@ fun () ->
  let captured = ref [] in
  let rows =
    List.map
      (fun (label, net) ->
        let reference =
          let r =
            Hlp_sim.Parsim.monte_carlo_units ~engine:Hlp_sim.Engine.Bitparallel net
              ~batch:16 ~seed:9
              ~stop:(fun ~means:_ ~cycles -> cycles >= 20_000)
          in
          r.Hlp_sim.Parsim.mean
        in
        let per engine =
          let r = mc_capture ~circuit:label ~engine net in
          captured := r :: !captured;
          r
        in
        let sc = per Hlp_sim.Engine.Scalar in
        let bp = per Hlp_sim.Engine.Bitparallel in
        [ label; fmt reference;
          fmt sc.mc_estimate;
          string_of_int sc.mc_cycles_used;
          fmt bp.mc_estimate;
          string_of_int bp.mc_cycles_used;
          (* cycles/second ratio: the bit engine simulates many more cycles
             (63 lanes per unit), so compare throughput, not latency *)
          Printf.sprintf "%.1fx"
            (float_of_int bp.mc_cycles_used /. bp.mc_seconds
            /. (float_of_int sc.mc_cycles_used /. sc.mc_seconds)) ])
      [
        ("adder 8", Hlp_logic.Generators.adder_circuit 8);
        ("multiplier 6", Hlp_logic.Generators.multiplier_circuit 6);
        ("alu 6", Hlp_logic.Generators.alu_circuit 6);
      ]
  in
  Table.print
    ~title:
      "E33b: Monte Carlo stopping per engine (estimates agree statistically; bit engine amortizes 63 streams/word)"
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    ~header:
      [ "circuit"; "20k-cycle ref"; "scalar est"; "cycles"; "bitpar est";
        "cycles"; "throughput" ]
    rows;
  Json.List (List.rev_map mc_obj !captured)

(* Telemetry and span-tracing overhead on the E33 replay workload:
   interleaved (disabled, enabled, disabled) rounds of bit-parallel
   replays. The disabled A/A spread bounds the cost of the disabled-mode
   instrumentation (one predictable branch per step plus plain
   per-instance tallies); the enabled batch pays the full aggregation, or
   for tracing full event recording (a handful of events per rep against
   a 65536-slot buffer, so the recording path is always the one paid,
   never the buffer-full drop path). *)
let instrumentation_overhead ~what ~enable ~disable ~n ~reps =
  let _model, dut, traces = sampler_workload ~n in
  let widths = dut.Hlp_power.Macromodel.widths in
  let vector i = Hlp_sim.Streams.pack ~widths traces i in
  let net = dut.Hlp_power.Macromodel.net in
  let run () =
    ignore
      (Hlp_sim.Parsim.replay ~engine:Hlp_sim.Engine.Bitparallel net ~vector ~n)
  in
  let m =
    Gate.aba ~reps
      ~a:(fun () -> disable (); run ())
      ~b:(fun () -> enable (); run ())
  in
  Printf.printf "%s overhead (bit-parallel replay, %d cycles, best of %d):\n"
    what n reps;
  Printf.printf "  disabled A/A spread: %.2f%% (bounds the off-switch cost)\n"
    m.Gate.spread_pct;
  Printf.printf "  enabled vs disabled: %.2f%%\n" m.Gate.diff_pct;
  print_newline ();
  Json.Obj
    ([ ("instrumentation", Json.Str what);
       ("workload", Json.Str "parsim.replay bitparallel (E33 sampler workload)");
       ("cycles", Json.Int n);
       ("reps", Json.Int reps) ]
    @ Gate.aba_fields ~a1:"disabled_a_s" ~b:"enabled_s" ~a2:"disabled_b_s"
        ~spread:"disabled_overhead_pct" ~diff:"enabled_overhead_pct" m)

let telemetry_overhead ?(n = 10_000) ?(reps = 5) () =
  Trace.span "bench.telemetry_overhead" @@ fun () ->
  let r =
    instrumentation_overhead ~what:"telemetry" ~enable:Telemetry.enable
      ~disable:Telemetry.disable ~n ~reps
  in
  Telemetry.reset ();
  r

(* E35: when the caller is tracing the bench run itself (--trace), the
   recorded history is left untouched *)
let tracing_overhead ?(n = 10_000) ?(reps = 7) () =
  Trace.span "bench.e35_tracing_overhead" @@ fun () ->
  let was_on = Trace.enabled () in
  let r =
    instrumentation_overhead ~what:"span tracing"
      ~enable:(fun () -> Trace.enable ())
      ~disable:Trace.disable ~n ~reps
  in
  if was_on then Trace.enable () else Trace.reset ();
  r

(* E34: cost of the guarded path when nothing goes wrong. The replay
   workload runs interleaved (raw, guarded, raw) rounds: raw calls
   Parsim.replay directly, guarded goes through Parsim.replay_guarded with
   a live deadline guard — the degradation chain, the guard checks, and
   the containment machinery all engaged, but no fault firing. The two raw
   batches bound the measurement noise the same way the telemetry A/A
   comparison does. Also exercises the symbolic-to-sampling degradation
   once (tiny BDD budget) so the JSON records a complete fallback event
   with its telemetry counters. *)
let e34_robustness ?(n = 10_000) ?(reps = 5) () =
  Trace.span "bench.e34_robustness" @@ fun () ->
  let _model, dut, traces = sampler_workload ~n in
  let widths = dut.Hlp_power.Macromodel.widths in
  let vector i = Hlp_sim.Streams.pack ~widths traces i in
  let net = dut.Hlp_power.Macromodel.net in
  let raw () =
    ignore
      (Hlp_sim.Parsim.replay ~engine:Hlp_sim.Engine.Bitparallel net ~vector ~n)
  in
  let guarded () =
    match
      Hlp_sim.Parsim.replay_guarded
        ~guard:(Hlp_util.Guard.create ~deadline_s:3600.0 ())
        ~engine:Hlp_sim.Engine.Bitparallel net ~vector ~n
    with
    | Ok d -> assert (d.Hlp_sim.Parsim.fallbacks = 0)
    | Error e -> failwith ("E34: guarded replay failed: " ^ Hlp_util.Err.to_string e)
  in
  let m = Gate.aba ~reps ~a:raw ~b:guarded in
  Printf.printf
    "E34: guarded-execution overhead (bit-parallel replay, %d cycles, best of %d):\n"
    n reps;
  Printf.printf "  raw A/A spread:     %.2f%% (measurement noise floor)\n"
    m.Gate.spread_pct;
  Printf.printf "  guarded vs raw:     %.2f%%\n" m.Gate.diff_pct;
  (* one forced degradation, counters on the record *)
  let node_limit = 50 in
  Telemetry.reset ();
  Telemetry.enable ();
  let sampled =
    match
      Hlp_power.Probprop.estimate_guarded ~node_limit ~seed:47
        ~engine:Hlp_sim.Engine.Bitparallel net
    with
    | Ok g ->
        assert g.Hlp_power.Probprop.symbolic_fallback;
        g.Hlp_power.Probprop.capacitance
    | Error e -> failwith ("E34: fallback demo failed: " ^ Hlp_util.Err.to_string e)
  in
  let fallbacks =
    Telemetry.count (Telemetry.counter "probprop.symbolic_fallbacks")
  in
  Telemetry.disable ();
  Telemetry.reset ();
  Printf.printf
    "  degradation demo:   BDD budget %d tripped -> sampled %.1f cap units/cycle\n"
    node_limit sampled;
  print_newline ();
  Json.Obj
    ([ ("workload", Json.Str "parsim.replay_guarded vs replay, bitparallel, no faults");
       ("cycles", Json.Int n);
       ("reps", Json.Int reps) ]
    (* the raw A/A spread is the noise floor the guarded overhead is
       judged against *)
    @ Gate.aba_fields ~a1:"raw_a_s" ~b:"guarded_s" ~a2:"raw_b_s"
        ~spread:"raw_spread_pct" ~diff:"guarded_overhead_pct" m
    @ [ ( "degradation_demo",
          Json.Obj
            [ ("bdd_node_limit", Json.Int node_limit);
              ("symbolic_fallbacks", Json.Int fallbacks);
              ("sampled_estimate", Json.Float sampled) ] ) ])

(* E36: checkpoint-journaling overhead on a fixed Monte Carlo workload.
   The same estimation (multiplier 8, bit-parallel engine, a precision
   target the cycle budget always hits first, so every run simulates the
   same deterministic unit count) runs interleaved (unjournaled,
   journaled, unjournaled) rounds; the journaled round appends one WAL
   record per unit under the default group-commit cadence and truncates
   the journal at open, so each rep pays the full durability cost. The
   two unjournaled batches bound the measurement noise. Checkpointing is
   pure bookkeeping: the journaled estimate must be bit-identical to the
   unjournaled one. *)
let e36_durability ?(units = 60) ?(batch = 500) ?(reps = 5) () =
  Trace.span "bench.e36_durability" @@ fun () ->
  let net = Hlp_logic.Generators.multiplier_circuit 8 in
  (* heavyweight units: checkpointing earns its keep on campaigns long
     enough to need crash-safety, where each journaled unit covers
     batch * 63 cycles of simulation — that is the regime the budget is
     pinned in. (At toy unit sizes the journal's few fsyncs dominate
     trivially short runs.) *)
  let budget = units * batch * 63 in
  let run ?checkpoint () =
    Hlp_power.Probprop.monte_carlo ~batch ~relative_precision:1e-9
      ~max_cycles:budget ~seed:47 ~engine:Hlp_sim.Engine.Bitparallel ?checkpoint
      net
  in
  let path = Filename.temp_file "hlpower_e36" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let journaled () = run ~checkpoint:(Hlp_power.Probprop.checkpoint path) () in
  let base = run () in
  let journ = journaled () in
  if base.Hlp_power.Probprop.batches <> units then
    failwith "E36: workload did not run the fixed unit count";
  let bits = Array.map Int64.bits_of_float in
  let identical =
    bits [| base.Hlp_power.Probprop.estimate |]
    = bits [| journ.Hlp_power.Probprop.estimate |]
    && bits base.Hlp_power.Probprop.batch_means
       = bits journ.Hlp_power.Probprop.batch_means
  in
  let m =
    Gate.aba ~reps
      ~a:(fun () -> ignore (run ()))
      ~b:(fun () -> ignore (journaled ()))
  in
  Printf.printf
    "E36: checkpoint overhead (bit-parallel MC, %d units / %d cycles, best of %d):\n"
    units budget reps;
  Printf.printf "  unjournaled A/A spread:   %.2f%% (measurement noise floor)\n"
    m.Gate.spread_pct;
  Printf.printf "  journaled vs unjournaled: %.2f%%\n" m.Gate.diff_pct;
  Printf.printf "  journaled estimate bit-identical: %b\n" identical;
  print_newline ();
  Json.Obj
    ([ ("workload",
        Json.Str "probprop.monte_carlo bitparallel, fixed unit budget (E36)");
       ("cycles", Json.Int budget);
       ("units", Json.Int units);
       ("reps", Json.Int reps) ]
    @ Gate.aba_fields ~a1:"unjournaled_a_s" ~b:"journaled_s"
        ~a2:"unjournaled_b_s" ~spread:"unjournaled_spread_pct"
        ~diff:"journaled_overhead_pct" m
    @ [ ("estimate_bit_identical", Json.Bool identical) ])

(* E38: compiled-kernel replay throughput across circuit sizes. The three
   engines replay the same precomputed white-noise trace (vector generation
   outside the timed region, so the measurement is the gate-level replay
   itself) over three circuits spanning two orders of magnitude in gate
   count. Bit-parallel and compiled are timed as interleaved (bitpar,
   compiled, bitpar) rounds: the two bit-parallel batches are an A/A noise
   floor for the compiled-vs-bitparallel ratio, which is a within-machine
   ratio, so it transfers across runners. The kernel's one-time compile
   cost is timed cold (Kernel.clear_cache first) and folded into an
   amortization curve: amortized speedup over bit-parallel after k
   replays of the same fingerprint, plus the break-even replay count. *)

type kernel_circuit = {
  kc_circuit : string;
  kc_gates : int;
  kc_depth : int;
  kc_cycles : int;
  kc_compile_s : float;
  kc_scalar_s : float;
  kc_bitpar_s : float;
  kc_compiled_s : float;
  kc_aa_spread_pct : float;  (** bit-parallel A/A spread, noise floor *)
  kc_compiled_vs_bitpar : float;
}

let kernel_circuit_obj c =
  Json.Obj
    [ ("circuit", Json.Str c.kc_circuit);
      ("gates", Json.Int c.kc_gates);
      ("depth", Json.Int c.kc_depth);
      ("cycles", Json.Int c.kc_cycles);
      ("compile_s", Json.Float c.kc_compile_s);
      ("scalar_s", Json.Float c.kc_scalar_s);
      ("bitparallel_s", Json.Float c.kc_bitpar_s);
      ("compiled_s", Json.Float c.kc_compiled_s);
      (* A/A comparison of the two interleaved bit-parallel batches:
         the noise floor the compiled ratio is judged against *)
      ("bitparallel_aa_spread_pct", Json.Float c.kc_aa_spread_pct);
      ("compiled_vs_bitparallel", Json.Float c.kc_compiled_vs_bitpar) ]

let e38_kernel ?(chunks = 48) ?(reps = 5) () =
  Trace.span "bench.e38_kernel" @@ fun () ->
  let n = chunks * Hlp_sim.Kernel.lanes in
  let circuits =
    [ ("multiplier 6", Hlp_logic.Generators.multiplier_circuit 6);
      ("multiplier 8", Hlp_logic.Generators.multiplier_circuit 8);
      ( "random 4k",
        Hlp_logic.Generators.random_logic (Prng.create 123) ~inputs:24
          ~outputs:16 ~gates:4000 ) ]
  in
  let measure (label, net) =
    let nin = Array.length net.Hlp_logic.Netlist.inputs in
    let rng = Prng.create 77 in
    (* the trace is materialized up front: vector generation must not cap
       the speedup of the fast engines *)
    let vecs = Array.init n (fun _ -> Array.init nin (fun _ -> Prng.bool rng)) in
    let vector i = vecs.(i) in
    let replay engine () = ignore (Hlp_sim.Parsim.replay ~engine net ~vector ~n) in
    (* cold compile: evict the plan, then time construction alone *)
    Hlp_sim.Kernel.clear_cache ();
    let _, kc_compile_s = time (fun () -> Hlp_sim.Kernel.of_netlist net) in
    replay Hlp_sim.Engine.Scalar ();
    (* warm-up *)
    let kc_scalar_s =
      Array.fold_left min infinity
        (Array.init reps (fun _ -> Gate.time (replay Hlp_sim.Engine.Scalar)))
    in
    let m =
      Gate.aba ~reps ~a:(replay Hlp_sim.Engine.Bitparallel)
        ~b:(replay Hlp_sim.Engine.Compiled)
    in
    {
      kc_circuit = label;
      kc_gates = Hlp_logic.Netlist.num_gates net;
      kc_depth = Hlp_logic.Netlist.logic_depth net;
      kc_cycles = n;
      kc_compile_s;
      kc_scalar_s;
      kc_bitpar_s = m.Gate.a_best_s;
      kc_compiled_s = m.Gate.b_best_s;
      kc_aa_spread_pct = m.Gate.spread_pct;
      kc_compiled_vs_bitpar = m.Gate.a_best_s /. m.Gate.b_best_s;
    }
  in
  let kn_circuits = List.map measure circuits in
  let kcs s = float_of_int n /. s /. 1e3 in
  let rows =
    List.map
      (fun c ->
        [ c.kc_circuit;
          string_of_int c.kc_gates;
          string_of_int c.kc_depth;
          Printf.sprintf "%.0f" (kcs c.kc_scalar_s);
          Printf.sprintf "%.0f" (kcs c.kc_bitpar_s);
          Printf.sprintf "%.0f" (kcs c.kc_compiled_s);
          Printf.sprintf "%.2fx" c.kc_compiled_vs_bitpar;
          Printf.sprintf "%.2f" (c.kc_compile_s *. 1e3);
          Printf.sprintf "%.1f%%" c.kc_aa_spread_pct ])
      kn_circuits
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E38: compiled-kernel replay throughput (kcycle/s, %d-cycle trace, best of %d)"
         n reps)
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [ "circuit"; "gates"; "depth"; "scalar"; "bitpar"; "compiled";
        "vs bitpar"; "compile ms"; "A/A" ]
    rows;
  let largest =
    List.fold_left
      (fun a c -> if c.kc_gates > a.kc_gates then c else a)
      (List.hd kn_circuits) kn_circuits
  in
  (* amortization: k replays of the same fingerprint pay one cold compile;
     the bit engine pays nothing up front *)
  let amortized k =
    float_of_int k *. largest.kc_bitpar_s
    /. (largest.kc_compile_s +. (float_of_int k *. largest.kc_compiled_s))
  in
  let amortization = List.map (fun k -> (k, amortized k)) [ 1; 10; 100; 1000 ] in
  let break_even =
    if largest.kc_compiled_s < largest.kc_bitpar_s then
      largest.kc_compile_s /. (largest.kc_bitpar_s -. largest.kc_compiled_s)
    else infinity
  in
  Printf.printf
    "compile amortization (%s): break-even at %.2f replays; speedup vs bitpar after"
    largest.kc_circuit break_even;
  List.iter (fun (k, s) -> Printf.printf "  %d: %.2fx" k s) amortization;
  print_newline ();
  Printf.printf "compiled vs bit-parallel on %s: %.2fx warm (A/A floor %.1f%%)\n"
    largest.kc_circuit largest.kc_compiled_vs_bitpar largest.kc_aa_spread_pct;
  print_newline ();
  Json.Obj
    [ ("experiment", Json.Str "E38 compiled-kernel replay throughput");
      ("circuits", Json.List (List.map kernel_circuit_obj kn_circuits));
      ("largest_circuit", Json.Str largest.kc_circuit);
      (* warm compiled-vs-bitparallel ratio on the largest circuit *)
      ("compiled_vs_bitparallel", Json.Float largest.kc_compiled_vs_bitpar);
      ("break_even_replays", Json.Float break_even);
      ( "amortization",
        Json.List
          (List.map
             (fun (replays, s) ->
               Json.Obj
                 [ ("replays", Json.Int replays);
                   ("speedup_vs_bitparallel", Json.Float s) ])
             amortization) ) ]

(* --- the blocks each run measures for the gate --- *)

(* blocks in order: each measurement runs when its turn comes *)
let measured blocks = List.map (fun (name, f) -> (name, f ())) blocks

let measure (run : Gate.run) =
  match run with
  | Gate.Engines | Gate.Smoke ->
      (* smoke: a reduced workload for CI that exercises every engine end
         to end *)
      let smoke = run = Gate.Smoke in
      let n = if smoke then 2_000 else 10_000 in
      let reduced v = if smoke then Some v else None in
      let reps = reduced 3 in
      measured
        [ ("experiment",
           fun () -> Json.Str "E33 engine throughput + Monte Carlo convergence");
          ( "workload",
            fun () ->
              Json.Obj
                [ ("dut", Json.Str "multiplier 8");
                  ("stream", Json.Str "uniform white noise");
                  ("cycles", Json.Int n) ] );
          ("smoke", fun () -> Json.Bool smoke);
          ("engines", fun () -> e33_throughput ~n ());
          ("monte_carlo", e33_monte_carlo);
          ("telemetry_overhead", fun () -> telemetry_overhead ~n ?reps ());
          ("tracing", fun () -> tracing_overhead ~n ?reps ());
          ("robustness", fun () -> e34_robustness ~n ?reps ());
          ("durability", fun () -> e36_durability ?units:(reduced 30) ?reps ());
          ("kernel", fun () -> e38_kernel ?chunks:(reduced 8) ?reps ());
          ("serve", fun () -> Exp_serve.e39_serve ?warm_rounds:(reduced 2) ());
          ("resilience", fun () -> Exp_chaos.e40_chaos ?requests:(reduced 15) ());
          ("flight", fun () -> Exp_flight.e41_flight ?reps:(reduced 2) ());
          ( "lifecycle",
            fun () ->
              Exp_lifecycle.e42_lifecycle ?requests_per_cycle:(reduced 10) () ) ]
  | Gate.Regression ->
      (* fresh numbers on this machine for the rows the committed snapshot
         anchors, and reduced soaks for the contracts *)
      measured
        [ ("engines", fun () -> e33_throughput ());
          ("kernel", fun () -> e38_kernel ());
          ("serve", fun () -> Exp_serve.e39_serve ());
          ("resilience", fun () -> Exp_chaos.e40_chaos ~requests:15 ());
          ("flight", fun () -> Exp_flight.e41_flight ~reps:2 ());
          ( "lifecycle",
            fun () -> Exp_lifecycle.e42_lifecycle ~cycles:2 ~requests_per_cycle:10 () ) ]
  | Gate.Chaos ->
      (* HLP_CHAOS_SEED picks the fault schedule, so a matrix of runners
         exercises distinct deterministic schedules *)
      let seed = Option.bind (Sys.getenv_opt "HLP_CHAOS_SEED") int_of_string_opt in
      measured [ ("resilience", fun () -> Exp_chaos.e40_chaos ?seed ()) ]
  | Gate.Flight -> measured [ ("flight", fun () -> Exp_flight.e41_flight ()) ]
  | Gate.Lifecycle -> measured [ ("lifecycle", fun () -> Exp_lifecycle.e42_lifecycle ()) ]
