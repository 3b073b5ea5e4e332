(* Differential validation of the bit-parallel simulation engine:

   - Bitsim vs 63 independent Funcsim replicas: toggle counts, per-lane
     and total switched capacitance must match exactly (qcheck
     property over generated netlists, plus a sequential-circuit case);
   - Parsim replay: the bit-parallel chunked replay must match the scalar
     reference (outputs exactly, capacitance to round-off);
   - regression pins: Sampling.sampler / Sampling.adaptive on a fixed
     seed/DUT, so an engine swap cannot silently shift estimator results. *)

open Hlp_logic
open Hlp_sim

let lanes = Bitsim.lanes

(* Drive a Bitsim and 63 Funcsim replicas with identical per-lane vectors
   and return both. *)
let run_differential net ~steps ~seed =
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create seed in
  let bit = Bitsim.create ~track_lanes:true net in
  let refs = Array.init lanes (fun _ -> Funcsim.create net) in
  for _ = 1 to steps do
    let vecs =
      Array.init lanes (fun _ -> Array.init nin (fun _ -> Hlp_util.Prng.bool rng))
    in
    Array.iteri (fun j sim -> Funcsim.step sim vecs.(j)) refs;
    Bitsim.step bit (Bitsim.pack_lanes vecs)
  done;
  (bit, refs)

let agree net ~steps ~seed =
  let bit, refs = run_differential net ~steps ~seed in
  let n = Netlist.num_nodes net in
  let sum_counts get =
    let acc = Array.make n 0 in
    Array.iter
      (fun sim -> Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) (get sim))
      refs;
    acc
  in
  let toggles_ok = Bitsim.toggle_counts bit = sum_counts Funcsim.toggle_counts in
  (* total switched capacitance: both sides derived from the (equal) toggle
     counts with the same summation order -> exactly equal *)
  let caps = Netlist.node_capacitance net in
  let expected = ref 0.0 in
  Array.iteri
    (fun i t -> expected := !expected +. (caps.(i) *. float_of_int t))
    (sum_counts Funcsim.toggle_counts);
  let switched_ok = Bitsim.switched_capacitance bit = !expected in
  (* per-lane accumulators add the same capacitances in the same order as
     the corresponding scalar replica -> exactly equal *)
  let lane_caps = Bitsim.lane_switched_capacitance bit in
  let lanes_ok =
    Array.for_all
      (fun j -> lane_caps.(j) = Funcsim.switched_capacitance refs.(j))
      (Array.init lanes (fun j -> j))
  in
  toggles_ok && switched_ok && lanes_ok

(* qcheck netlist generator: adders, ALUs, and random logic of varying
   sizes, per the macro-modeling population. *)
let gen_netlist =
  QCheck.Gen.(
    oneof
      [
        map (fun w -> ("adder", Generators.adder_circuit (2 + w))) (int_bound 6);
        map (fun w -> ("alu", Generators.alu_circuit (2 + w))) (int_bound 3);
        map
          (fun (seed, (nin, gates)) ->
            ( "random",
              Generators.random_logic
                (Hlp_util.Prng.create (1 + seed))
                ~inputs:(3 + nin) ~outputs:3 ~gates:(20 + gates) ))
          (pair (int_bound 10_000) (pair (int_bound 5) (int_bound 60)));
      ])

let arb_netlist =
  QCheck.make ~print:(fun (name, net) -> name ^ ": " ^ Netlist.stats_string net)
    gen_netlist

let qcheck_differential =
  QCheck.Test.make ~count:60
    ~name:"bitsim matches 63 funcsim replicas (toggles, switched cap)"
    (QCheck.pair arb_netlist QCheck.small_nat)
    (fun ((_, net), seed) -> agree net ~steps:5 ~seed:(seed + 1))

(* A sequential circuit (4-bit counter with enable) exercises the flip-flop
   latch path and the reset/first-step handling. *)
let sequential_net () =
  let b = Netlist.Builder.create () in
  let en = Netlist.Builder.input ~name:"en" b in
  let qarr = Array.make 4 0 in
  let rec build i carry =
    if i < 4 then begin
      ignore
        (Netlist.Builder.dff_feedback b (fun q ->
             qarr.(i) <- q;
             Netlist.Builder.xor_ b q carry));
      build (i + 1) (Netlist.Builder.and_ b [ qarr.(i); carry ])
    end
  in
  build 0 en;
  Array.iteri (fun i q -> Netlist.Builder.output b (Printf.sprintf "q%d" i) q) qarr;
  let net = Netlist.Builder.finish b in
  Netlist.validate net;
  net

let test_differential_sequential () =
  Alcotest.(check bool)
    "bitsim matches funcsim replicas on a sequential circuit" true
    (agree (sequential_net ()) ~steps:50 ~seed:7)

let test_output_words () =
  (* bit-parallel adder: every lane must compute its own sum *)
  let n = 8 in
  let net = Generators.adder_circuit n in
  let rng = Hlp_util.Prng.create 3 in
  let pairs = Array.init lanes (fun _ -> (Hlp_util.Prng.int rng 256, Hlp_util.Prng.int rng 256)) in
  let vecs =
    Array.map
      (fun (a, b) ->
        Array.init (2 * n) (fun i ->
            if i < n then Hlp_util.Bits.bit a i else Hlp_util.Bits.bit b (i - n)))
      pairs
  in
  let sim = Bitsim.create net in
  Bitsim.step sim (Bitsim.pack_lanes vecs);
  let outs = Bitsim.output_words sim in
  (* outputs are s0..s7 then carry (output index order); low 8 bits = sum *)
  Array.iteri
    (fun j (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "lane %d sum" j)
        ((a + b) land 255)
        (outs.(j) land 255))
    pairs

(* --- Parsim replay: bit-parallel chunks against the scalar reference --- *)

let test_replay_matches_scalar () =
  let net = Generators.multiplier_circuit 6 in
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create 19 in
  let trace = Streams.uniform rng ~width:nin ~n:500 in
  let vector i = Array.init nin (fun b -> Hlp_util.Bits.bit trace.(i) b) in
  let rb = Parsim.replay ~engine:Engine.Bitparallel net ~vector ~n:500 in
  (* scalar agrees exactly on outputs and within round-off on capacitance *)
  let rs = Parsim.replay ~engine:Engine.Scalar net ~vector ~n:500 in
  Alcotest.(check bool) "out words match scalar" true
    (rs.Parsim.out_words = rb.Parsim.out_words);
  let max_rel = ref 0.0 in
  Array.iteri
    (fun i v ->
      max_rel :=
        max !max_rel
          (Hlp_util.Stats.relative_error ~actual:v
             ~estimate:rb.Parsim.transition_caps.(i)))
    rs.Parsim.transition_caps;
  Alcotest.(check bool) "transition caps match scalar to round-off" true
    (!max_rel < 1e-9)

let test_monte_carlo_engines_agree () =
  (* different random streams, same physics: engines must agree within the
     combined confidence intervals (generous 15% band) *)
  let net = Generators.adder_circuit 8 in
  let scalar = Hlp_power.Probprop.monte_carlo ~seed:11 net in
  let bitpar =
    Hlp_power.Probprop.monte_carlo ~seed:11 ~engine:Hlp_sim.Engine.Bitparallel net
  in
  Alcotest.(check bool) "bitparallel estimate near scalar" true
    (Hlp_util.Stats.relative_error ~actual:scalar.Hlp_power.Probprop.estimate
       ~estimate:bitpar.Hlp_power.Probprop.estimate
    < 0.15)

(* --- regression pins: the engine swap must not move the estimators --- *)

let pinned_cosim engine =
  let dut =
    { Hlp_power.Macromodel.net = Hlp_logic.Generators.adder_circuit 8; widths = [ 8; 8 ] }
  in
  let rng = Hlp_util.Prng.create 123 in
  let training =
    [ [ Streams.uniform rng ~width:8 ~n:300; Streams.uniform rng ~width:8 ~n:300 ] ]
  in
  let obs = List.map (Hlp_power.Macromodel.observe dut) training in
  let model = Hlp_power.Macromodel.fit Hlp_power.Macromodel.Bitwise dut obs in
  let traces =
    [ Streams.uniform rng ~width:8 ~n:2000; Streams.uniform rng ~width:8 ~n:2000 ]
  in
  Hlp_power.Sampling.prepare ~engine model dut traces

let check_rel name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.9g within 1e-6 of pinned %.9g" name actual expected)
    true
    (Hlp_util.Stats.relative_error ~actual:expected ~estimate:actual < 1e-6)

(* Pinned against the seed (scalar) implementation on the fixed DUT above. *)
let pinned_sampler = 93.912285579
let pinned_adaptive = 98.786161983
let pinned_gate_reference = 95.413506753

let test_sampling_regression_scalar () =
  let t = pinned_cosim Hlp_sim.Engine.Scalar in
  check_rel "gate reference" pinned_gate_reference (Hlp_power.Sampling.gate_reference t);
  let s = Hlp_power.Sampling.sampler ~seed:77 t in
  check_rel "sampler" pinned_sampler s.Hlp_power.Sampling.value;
  let a = Hlp_power.Sampling.adaptive ~seed:99 t in
  check_rel "adaptive" pinned_adaptive a.Hlp_power.Sampling.value

let test_sampling_regression_engines () =
  let ts = pinned_cosim Hlp_sim.Engine.Scalar in
  let tb = pinned_cosim Hlp_sim.Engine.Bitparallel in
  let tc = pinned_cosim Hlp_sim.Engine.Compiled in
  List.iter
    (fun (name, t) ->
      (* sampler and census read only macro evaluations, which are derived
         from engine-exact output words: bit-identical across engines *)
      Alcotest.(check (float 0.0))
        (name ^ " sampler bit-identical")
        (Hlp_power.Sampling.sampler ~seed:77 ts).Hlp_power.Sampling.value
        (Hlp_power.Sampling.sampler ~seed:77 t).Hlp_power.Sampling.value;
      Alcotest.(check (float 0.0))
        (name ^ " census bit-identical")
        (Hlp_power.Sampling.census ts).Hlp_power.Sampling.value
        (Hlp_power.Sampling.census t).Hlp_power.Sampling.value;
      (* adaptive touches gate-level floats: equal up to round-off *)
      check_rel (name ^ " adaptive")
        (Hlp_power.Sampling.adaptive ~seed:99 ts).Hlp_power.Sampling.value
        (Hlp_power.Sampling.adaptive ~seed:99 t).Hlp_power.Sampling.value;
      check_rel (name ^ " gate reference")
        (Hlp_power.Sampling.gate_reference ts)
        (Hlp_power.Sampling.gate_reference t))
    [ ("bitparallel", tb); ("compiled", tc) ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "bitsim differential on sequential circuit" `Quick
      test_differential_sequential;
    Alcotest.test_case "bitsim per-lane output words" `Quick test_output_words;
    Alcotest.test_case "parsim replay matches scalar" `Quick
      test_replay_matches_scalar;
    Alcotest.test_case "monte carlo engines agree" `Quick
      test_monte_carlo_engines_agree;
    Alcotest.test_case "sampling regression pins (scalar)" `Quick
      test_sampling_regression_scalar;
    Alcotest.test_case "sampling regression pins (engines)" `Quick
      test_sampling_regression_engines;
  ]
