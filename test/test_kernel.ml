(* Differential test wall for the compiled struct-of-arrays replay kernel.

   The contract under test: Engine.Compiled is {e bit-identical} to the
   engines it replaces — every node value, every per-node toggle counter,
   every output word, the total and per-lane switched-capacitance floats, the
   Monte Carlo estimates (including after checkpoint/resume and after a
   SIGKILL mid-run), and the sampling estimators. Plus the compile-step
   obligations: the fingerprint cache shares plans physically, the
   levelization edge cases (zero-fanin constant gates, dangling nodes)
   survive compilation, the degradation chain lands on Scalar when the
   kernel cannot apply, and the fault-injection point trips inside the
   compiled step like it does inside the interpreters. *)

open Hlp_logic
open Hlp_sim

module P = Hlp_power.Probprop

let lanes = Kernel.lanes
let bits = Int64.bits_of_float

let float_bits_equal name a b =
  Alcotest.(check int64) (name ^ " bits") (bits a) (bits b)

(* --- step differential: Kernel vs Bitsim, word-for-word --- *)

let random_words rng nin =
  Array.init nin (fun _ -> Int64.to_int (Hlp_util.Prng.bits64 rng))

(* Drive a Bitsim and a compiled kernel with identical word stimuli and
   require every observable to match exactly (floats compared by bits). *)
let kernel_agrees net ~steps ~seed =
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create seed in
  let bit = Bitsim.create ~track_lanes:true net in
  let ker = Kernel.create ~track_lanes:true (Kernel.compile net) in
  let ok = ref true in
  let n = Netlist.num_nodes net in
  for _ = 1 to steps do
    let words = random_words rng nin in
    Bitsim.step bit words;
    Kernel.step ker words;
    for i = 0 to n - 1 do
      if Bitsim.value bit i <> Kernel.value ker i then ok := false
    done
  done;
  ok := !ok && Bitsim.toggle_counts bit = Kernel.toggle_counts ker;
  ok :=
    !ok
    && bits (Bitsim.switched_capacitance bit)
       = bits (Kernel.switched_capacitance ker);
  let lb = Bitsim.lane_switched_capacitance bit in
  let lk = Kernel.lane_switched_capacitance ker in
  ok := !ok && Array.for_all2 (fun a b -> bits a = bits b) lb lk;
  let outs = Array.make lanes 0 in
  Kernel.output_lanes ker outs 0 lanes;
  ok := !ok && Bitsim.output_words bit = outs;
  ok := !ok && Bitsim.cycles bit = Kernel.cycles ker;
  !ok

let qcheck_step_differential =
  QCheck.Test.make ~count:60
    ~name:
      "compiled kernel matches bitsim word-for-word (values, toggles, caps, \
       lanes)"
    (QCheck.pair Test_bitsim.arb_netlist QCheck.small_nat)
    (fun ((_, net), seed) -> kernel_agrees net ~steps:5 ~seed:(seed + 1))

let test_step_differential_sequential () =
  Alcotest.(check bool)
    "kernel matches bitsim on a sequential circuit" true
    (kernel_agrees (Test_bitsim.sequential_net ()) ~steps:50 ~seed:7)

let test_reset_state () =
  (* registers come up at their init value, broadcast across lanes, and the
     first step latches the reset state (not garbage from an empty
     previous cycle) *)
  let b = Netlist.Builder.create () in
  let q = Netlist.Builder.dff_feedback ~init:true b (fun q -> Netlist.Builder.not_ b q) in
  Netlist.Builder.output b "q" q;
  let net = Netlist.Builder.finish b in
  let ker = Kernel.create (Kernel.compile net) in
  let bit = Bitsim.create net in
  Alcotest.(check int) "init broadcast" (Bitsim.value bit q) (Kernel.value ker q);
  Alcotest.(check bool) "init=true is all ones" true (Kernel.value ker q = -1);
  Alcotest.(check bool) "toggles from reset" true
    (kernel_agrees net ~steps:10 ~seed:1)

(* --- scalar lane: the kernel vs the reference Funcsim --- *)

let test_scalar_variant_combinational () =
  let net = Generators.adder_circuit 6 in
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create 41 in
  let ker = Kernel.create ~track_lanes:true (Kernel.compile net) in
  let fsim = Funcsim.create net in
  for _ = 1 to 40 do
    let vec = Array.init nin (fun _ -> Hlp_util.Prng.bool rng) in
    Funcsim.step fsim vec;
    Kernel.step_scalar ker vec;
    for i = 0 to Netlist.num_nodes net - 1 do
      Alcotest.(check bool) "node value" (Funcsim.value fsim i)
        (Kernel.value_bool ker i)
    done
  done;
  (* lanes 1.. see constant-zero inputs: on a combinational circuit they
     never toggle after reset, so the kernel's counters are pure lane 0 *)
  Alcotest.(check (array int)) "toggles equal funcsim"
    (Funcsim.toggle_counts fsim) (Kernel.toggle_counts ker);
  (* lane 0's accumulator adds the same capacitances in the same order as
     the scalar simulator -> exactly equal *)
  float_bits_equal "lane 0 switched capacitance"
    (Funcsim.switched_capacitance fsim)
    (Kernel.lane_switched_capacitance ker).(0)

let test_scalar_variant_sequential () =
  let net = Test_bitsim.sequential_net () in
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create 42 in
  let ker = Kernel.create ~track_lanes:true (Kernel.compile net) in
  let fsim = Funcsim.create net in
  for _ = 1 to 60 do
    let vec = Array.init nin (fun _ -> Hlp_util.Prng.bool rng) in
    Funcsim.step fsim vec;
    Kernel.step_scalar ker vec;
    for i = 0 to Netlist.num_nodes net - 1 do
      Alcotest.(check bool) "node value" (Funcsim.value fsim i)
        (Kernel.value_bool ker i)
    done
  done;
  float_bits_equal "lane 0 switched capacitance"
    (Funcsim.switched_capacitance fsim)
    (Kernel.lane_switched_capacitance ker).(0)

(* --- trace replay: Parsim with Engine.Compiled --- *)

let bool_trace net ~n ~seed =
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create seed in
  Array.init n (fun _ -> Array.init nin (fun _ -> Hlp_util.Prng.bool rng))

let replay_equal net ~n ~seed =
  let trace = bool_trace net ~n ~seed in
  let vector i = trace.(i) in
  let rb = Parsim.replay ~engine:Engine.Bitparallel net ~vector ~n in
  let rk = Parsim.replay ~engine:Engine.Compiled net ~vector ~n in
  rb.Parsim.out_words = rk.Parsim.out_words
  && Array.for_all2
       (fun a b -> bits a = bits b)
       rb.Parsim.transition_caps rk.Parsim.transition_caps

let qcheck_replay_differential =
  QCheck.Test.make ~count:25
    ~name:"compiled replay is bit-identical to bitparallel replay"
    (QCheck.pair Test_bitsim.arb_netlist (QCheck.int_range 1 200))
    (fun ((_, net), n) -> replay_equal net ~n ~seed:(n + 3))

(* chunk-boundary arithmetic: below, at, and just past lane multiples,
   and a long trace whose last chunk is one cycle (4096 = 65 x 63 + 1) *)
let edge_lengths =
  [ 1; 2; lanes - 1; lanes; lanes + 1; (2 * lanes) - 1; 2 * lanes; 4096 ]

let test_replay_edge_lengths () =
  let net = Generators.adder_circuit 4 in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d bit-identical" n)
        true
        (replay_equal net ~n ~seed:n))
    edge_lengths

let test_replay_rejects_sequential () =
  let net = Test_bitsim.sequential_net () in
  let vector _ = [| true |] in
  match Parsim.replay ~engine:Engine.Compiled net ~vector ~n:10 with
  | _ -> Alcotest.fail "expected Invalid_argument for a sequential netlist"
  | exception Invalid_argument _ -> ()

(* --- quiet traces: the compiled replay skips idle chunks ---

   A chunk whose 64 vectors (its 63 and the next chunk's first) are all
   equal runs no step under [Compiled]. Uniform vectors almost never
   make one, so these traces hold their words: compiled must still equal
   bitparallel bit for bit, and scalar on outputs exactly and on
   capacitance to round-off. *)

let word_vectors net words =
  let nin = Array.length net.Netlist.inputs in
  fun i -> Array.init nin (fun b -> Hlp_util.Bits.bit words.(i) b)

let replays_agree net words =
  let vector = word_vectors net words and n = Array.length words in
  let rk = Parsim.replay ~engine:Engine.Compiled net ~vector ~n in
  let rb = Parsim.replay ~engine:Engine.Bitparallel net ~vector ~n in
  let rs = Parsim.replay ~engine:Engine.Scalar net ~vector ~n in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  rk.Parsim.out_words = rb.Parsim.out_words
  && Array.for_all2
       (fun a b -> bits a = bits b)
       rk.Parsim.transition_caps rb.Parsim.transition_caps
  && rk.Parsim.out_words = rs.Parsim.out_words
  && Array.for_all2 close rk.Parsim.transition_caps rs.Parsim.transition_caps

let held_words net ~change ~n ~seed =
  let rng = Hlp_util.Prng.create seed in
  Streams.hold rng ~change_prob:change
    (Streams.uniform rng ~width:(Array.length net.Netlist.inputs) ~n)

let change_rates = [ 0.0; 0.01; 0.2; 1.0 ]

let qcheck_replay_held =
  QCheck.Test.make ~count:40
    ~name:"compiled replay of held traces matches bitparallel and scalar"
    (QCheck.triple Test_bitsim.arb_netlist (QCheck.int_range 1 300)
       (QCheck.oneofl change_rates))
    (fun ((_, net), n, change) ->
      replays_agree net (held_words net ~change ~n ~seed:(n + 5)))

let test_replay_quiet_lengths () =
  let net = Generators.adder_circuit 4 in
  let nin = Array.length net.Netlist.inputs in
  List.iter
    (fun n ->
      List.iter
        (fun change ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d held at %g" n change)
            true
            (replays_agree net (held_words net ~change ~n ~seed:n)))
        change_rates;
      List.iter
        (fun value ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d constant %#x" n value)
            true
            (replays_agree net (Streams.constant ~value ~n)))
        [ 0; (1 lsl nin) - 1; 0b1011_0110 ])
    edge_lengths

let test_replay_change_on_64th () =
  (* the only change lands on cycle 63c+63: vector 64 of chunk c, whose
     other 63 vectors are equal. Chunk c is busy and its last lane
     charges the change; a replay that compared only a chunk's own 63
     vectors would skip it and lose that charge. *)
  let net = Generators.adder_circuit 4 in
  let n = 4096 in
  List.iter
    (fun c ->
      let at = (lanes * c) + lanes in
      let words = Array.init n (fun i -> if i < at then 0b0101 else 0b1110) in
      let name = Printf.sprintf "change at cycle %d" at in
      Alcotest.(check bool) name true (replays_agree net words);
      let r =
        Parsim.replay ~engine:Engine.Compiled net ~vector:(word_vectors net words)
          ~n
      in
      Array.iteri
        (fun i cap ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: transition %d charged" name i)
            (i = at - 1) (cap > 0.0))
        r.Parsim.transition_caps)
    [ 0; 1; 30; (n - 1) / lanes - 1 ]

let test_replay_idle_chunks_counted () =
  let net = Generators.adder_circuit 4 in
  let n = 4096 in
  let chunks = (n + lanes - 1) / lanes in
  let idle words =
    Test_durability.with_telemetry @@ fun () ->
    ignore
      (Parsim.replay ~engine:Engine.Compiled net ~vector:(word_vectors net words)
         ~n);
    let count name = Hlp_util.Telemetry.(count (counter name)) in
    Alcotest.(check int) "chunks" chunks (count "parsim.chunks");
    count "parsim.idle_chunks"
  in
  Alcotest.(check int) "constant trace: every chunk idle" chunks
    (idle (Streams.constant ~value:0b1001 ~n));
  (* 4096 = 65 x 63 + 1: the last chunk holds cycle 4095 alone, and its
     lanes past the trace repeat it, so that chunk alone is idle *)
  Alcotest.(check int) "uniform trace: only the one-cycle tail idle" 1
    (idle (held_words net ~change:1.0 ~n ~seed:3))

(* --- quiet lanes: a busy chunk sweeps and transposes only its changes ---

   The only changes of a four-chunk trace fall in chunk 1, each on a
   chosen lane [j]: the trace steps to a new word after cycle 63 + j, so
   the counted step toggles nodes in lane [j] alone, and the warm-up
   lanes above [j] hold a new vector. Lanes 0..59 sweep in four-lane
   groups and 60..62 as one tail group, so a change on each lane crosses
   every group edge, 3/4 and 59/60 among them. *)

let lane_group j = if j < 60 then j / 4 else 15

let test_replay_lane_positions () =
  let net = Generators.adder_circuit 4 in
  let n = 4 * lanes in
  (* consecutive words differ in the sum, so a lane that repeated its
     neighbour's output word would show *)
  let values = [| 0b0101; 0b1110; 0b0011 |] in
  let case js =
    let name = String.concat "," (List.map string_of_int js) in
    let words =
      Array.init n (fun i ->
          values.(List.length (List.filter (fun j -> i > lanes + j) js)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "lanes %s: compiled = bitparallel and scalar" name)
      true (replays_agree net words);
    let r, groups =
      Test_durability.with_telemetry @@ fun () ->
      let r =
        Parsim.replay ~engine:Engine.Compiled net
          ~vector:(word_vectors net words) ~n
      in
      (r, Hlp_util.Telemetry.(count (counter "kernel.lane_groups")))
    in
    Array.iteri
      (fun i cap ->
        Alcotest.(check bool)
          (Printf.sprintf "lanes %s: transition %d charged" name i)
          (List.mem (i - lanes) js)
          (cap > 0.0))
      r.Parsim.transition_caps;
    Alcotest.(check int)
      (Printf.sprintf "lanes %s: groups swept" name)
      (List.length (List.sort_uniq compare (List.map lane_group js)))
      groups
  in
  for j = 0 to lanes - 1 do
    case [ j ]
  done;
  (* two changes in one group, then across two groups *)
  List.iter case
    [ [ 0; 3 ]; [ 4; 7 ]; [ 57; 58 ]; [ 60; 62 ]; [ 61; 62 ];
      [ 3; 4 ]; [ 59; 60 ]; [ 0; 62 ]; [ 10; 40 ] ]

(* The lane sweep's two C paths against [Bitsim.scan_lanes], the scatter
   walk, on delta sets from empty through one lane to dense words. The
   AVX2 sweep runs wherever the CPU has it; the portable one is reached
   through a primitive of its own, since no AVX2 host would take it. *)
external sweep : float array -> int array -> float array -> int -> int
  = "hlp_kernel_accumulate_lanes"
  [@@noalloc]

external sweep_portable :
  float array -> int array -> float array -> int -> int
  = "hlp_kernel_accumulate_lanes_portable"
  [@@noalloc]

let test_sweeps_match_scan_lanes () =
  let rng = Hlp_util.Prng.create 29 in
  let word () = Int64.to_int (Hlp_util.Prng.bits64 rng) in
  let lane_bit () = 1 lsl Hlp_util.Prng.int rng lanes in
  let check name deltas =
    let m = Array.length deltas in
    let caps = Array.init m (fun _ -> Hlp_util.Prng.float rng 10.0) in
    (* running lane sums, non-negative like every sum a replay holds *)
    let start =
      Array.init lanes (fun j ->
          if j mod 3 = 0 then 0.0 else Hlp_util.Prng.float rng 100.0)
    in
    let expect = Array.copy start in
    Array.iteri (fun k d -> Bitsim.scan_lanes expect caps.(k) d) deltas;
    let touched = Array.fold_left ( lor ) 0 deltas in
    let groups =
      List.length
        (List.sort_uniq compare
           (List.filter_map
              (fun j ->
                if (touched lsr j) land 1 = 1 then Some (lane_group j) else None)
              (List.init lanes Fun.id)))
    in
    List.iter
      (fun (path, f) ->
        let ls = Array.copy start in
        (* the primitives read [n] entries of arrays that may be longer *)
        let pad = Array.append deltas [| -1 |]
        and pad_caps = Array.append caps [| 1.0 |] in
        Alcotest.(check int)
          (Printf.sprintf "%s, %s: groups" name path)
          groups (f ls pad pad_caps m);
        Array.iteri
          (fun j x ->
            Alcotest.(check int64)
              (Printf.sprintf "%s, %s: lane %d" name path j)
              (bits x) (bits ls.(j)))
          expect)
      [ ("dispatched", sweep); ("portable", sweep_portable) ]
  in
  check "no deltas" [||];
  for j = 0 to lanes - 1 do
    check (Printf.sprintf "lane %d alone" j) (Array.make 5 (1 lsl j))
  done;
  for t = 1 to 20 do
    check (Printf.sprintf "sparse %d" t)
      (Array.init (1 + Hlp_util.Prng.int rng 40) (fun _ ->
           if Hlp_util.Prng.int rng 3 = 0 then lane_bit () lor lane_bit ()
           else lane_bit ()));
    check (Printf.sprintf "dense %d" t)
      (Array.init (1 + Hlp_util.Prng.int rng 200) (fun _ -> word ()))
  done;
  check "every lane" (Array.make 7 (-1))

(* --- Monte Carlo: byte-identical estimates --- *)

let test_mc_compiled_equals_bitparallel () =
  let run engine = Test_durability.units_mc ~engine () in
  Test_durability.check_mc_identical "combinational multiplier"
    (run Engine.Bitparallel) (run Engine.Compiled)

let test_mc_compiled_equals_bitparallel_sequential () =
  let net = Test_bitsim.sequential_net () in
  let run engine =
    P.monte_carlo ~batch:4 ~relative_precision:1e-6 ~max_cycles:(8 * 4 * lanes)
      ~seed:13 ~engine net
  in
  Test_durability.check_mc_identical "sequential counter"
    (run Engine.Bitparallel) (run Engine.Compiled)

(* --- golden-value pins: hex IEEE-754 bits on fixed circuits and seeds ---

   Each pin is the exact bit pattern of the Monte Carlo estimate on a
   fixed (circuit, seed, budget). Any change to PRNG streams, accounting
   order, or engine arithmetic shows up as a changed pin. Refresh by
   running the test binary with HLP_PRINT_PINS=1. *)

let pin_circuits () =
  [ ("adder8", Generators.adder_circuit 8);
    ("alu4", Generators.alu_circuit 4);
    ("mult4", Generators.multiplier_circuit 4) ]

let pin_seeds = [ 7; 31 ]

let pinned_mc ~engine ~seed net =
  P.monte_carlo ~batch:4 ~relative_precision:1e-6 ~max_cycles:(6 * 4 * lanes)
    ~seed ~engine net

let compiled_pins =
  [ ("adder8", 7, 0x4057b31cfc7a7253L);
    ("adder8", 31, 0x40578c865dbb3108L);
    ("alu4", 7, 0x405ccd532a87fdd7L);
    ("alu4", 31, 0x405c5982d82d82d8L);
    ("mult4", 7, 0x406242f4e4a39f90L);
    ("mult4", 31, 0x40621f070b1b5c61L) ]

let scalar_pins =
  [ ("adder8", 7, 0x4057ed3f258beecbL);
    ("adder8", 31, 0x405817ba06d39cf0L);
    ("alu4", 7, 0x405c58cccccccb05L);
    ("alu4", 31, 0x405d5a1eb851e983L);
    ("mult4", 7, 0x40628b6b851eb69aL);
    ("mult4", 31, 0x40631a2740da727dL) ]

let scalar_pinned_mc ~seed net =
  P.monte_carlo ~batch:20 ~relative_precision:1e-6 ~max_cycles:480 ~seed
    ~engine:Engine.Scalar net

let print_pins_if_requested () =
  if Sys.getenv_opt "HLP_PRINT_PINS" = Some "1" then begin
    List.iter
      (fun (name, net) ->
        List.iter
          (fun seed ->
            let c = pinned_mc ~engine:Engine.Compiled ~seed net in
            let s = scalar_pinned_mc ~seed net in
            Printf.printf "compiled %s %d 0x%LxL\nscalar %s %d 0x%LxL\n" name
              seed (bits c.P.estimate) name seed (bits s.P.estimate))
          pin_seeds)
      (pin_circuits ());
    exit 0
  end

let check_pins what pins run =
  let nets = pin_circuits () in
  List.iter
    (fun (name, seed, pinned) ->
      let net = List.assoc name nets in
      let got = bits (run ~seed net).P.estimate in
      Alcotest.(check int64)
        (Printf.sprintf "%s %s seed=%d" what name seed)
        pinned got)
    pins

let test_golden_pins_compiled () =
  check_pins "compiled" compiled_pins (pinned_mc ~engine:Engine.Compiled);
  (* the bitparallel engine must sit on the same pins: same streams, same
     accounting *)
  check_pins "bitparallel" compiled_pins (pinned_mc ~engine:Engine.Bitparallel)

let test_golden_pins_scalar () =
  check_pins "scalar" scalar_pins (fun ~seed net -> scalar_pinned_mc ~seed net)

(* --- levelization edge cases: constants and dangling nodes --- *)

let test_const_gates () =
  (* zero-fanin constant drivers at level 0; a gate fed only by constants
     sits at level 1, settles once, and never toggles *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.input b in
  let t = Netlist.Builder.const_ b true in
  let f = Netlist.Builder.const_ b false in
  let g1 = Netlist.Builder.and_ b [ x; t ] in
  let g2 = Netlist.Builder.or_ b [ g1; f ] in
  let g3 = Netlist.Builder.xor_ b t f in
  Netlist.Builder.output b "y" g2;
  Netlist.Builder.output b "z" g3;
  let net = Netlist.Builder.finish b in
  let lv = Netlist.comb_levels net in
  Alcotest.(check int) "const true at level 0" 0 lv.(t);
  Alcotest.(check int) "const false at level 0" 0 lv.(f);
  Alcotest.(check int) "const-fed gate at level 1" 1 lv.(g3);
  Alcotest.(check bool) "differential with constants" true
    (kernel_agrees net ~steps:20 ~seed:3);
  let ker = Kernel.create (Kernel.compile net) in
  Kernel.step ker [| -1 |];
  Kernel.step ker [| 0 |];
  Alcotest.(check int) "xor(1,0) broadcast" (-1) (Kernel.value ker g3);
  Alcotest.(check int) "const-fed gate never toggles" 0
    (Kernel.toggle_counts ker).(g3)

let test_dangling_nodes () =
  (* a gate with no consumers and no output port still switches (and still
     burns capacitance): it must be levelized, scheduled, and accounted *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.input b in
  let y = Netlist.Builder.input b in
  let dangling = Netlist.Builder.xor_ b x y in
  let z = Netlist.Builder.and_ b [ x; y ] in
  Netlist.Builder.output b "z" z;
  let net = Netlist.Builder.finish b in
  Alcotest.(check int) "dangling gate levelized" 1
    (Netlist.comb_levels net).(dangling);
  Alcotest.(check bool) "differential with dangling gate" true
    (kernel_agrees net ~steps:20 ~seed:5);
  let ker = Kernel.create (Kernel.compile net) in
  Kernel.step ker [| -1; 0 |];
  Kernel.step ker [| 0; 0 |];
  Alcotest.(check bool) "dangling gate toggles" true
    ((Kernel.toggle_counts ker).(dangling) > 0)

let test_no_gates () =
  (* inputs wired straight to outputs: zero slots, zero levels, and the
     step is latch + drive + account only *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.input b in
  Netlist.Builder.output b "x" x;
  let net = Netlist.Builder.finish b in
  let plan = Kernel.compile net in
  let st = Kernel.stats plan in
  Alcotest.(check int) "no slots" 0 st.Kernel.slots;
  Alcotest.(check int) "no levels" 0 st.Kernel.levels;
  Alcotest.(check bool) "differential with no gates" true
    (kernel_agrees net ~steps:10 ~seed:2)

let test_no_inputs () =
  (* a closed sequential circuit (oscillator): no primary inputs at all *)
  let b = Netlist.Builder.create () in
  let q =
    Netlist.Builder.dff_feedback b (fun q -> Netlist.Builder.not_ b q)
  in
  Netlist.Builder.output b "q" q;
  let net = Netlist.Builder.finish b in
  Alcotest.(check bool) "differential with no inputs" true
    (kernel_agrees net ~steps:20 ~seed:9)

(* --- the fingerprint-keyed plan cache --- *)

let test_plan_cache () =
  Test_durability.with_telemetry @@ fun () ->
  Kernel.clear_cache ();
  let hits () = Hlp_util.Telemetry.count (Hlp_util.Telemetry.counter "kernel.cache_hits") in
  let misses () = Hlp_util.Telemetry.count (Hlp_util.Telemetry.counter "kernel.cache_misses") in
  let h0 = hits () and m0 = misses () in
  let net1 = Generators.adder_circuit 5 in
  let net2 = Generators.adder_circuit 5 in
  let p1 = Kernel.of_netlist net1 in
  let p2 = Kernel.of_netlist net2 in
  (* a structurally equal netlist, rebuilt from scratch, shares the plan
     physically — compile once, replay many *)
  Alcotest.(check bool) "rebuilt netlist hits the cache" true (p1 == p2);
  Alcotest.(check int) "one miss" (m0 + 1) (misses ());
  Alcotest.(check int) "one hit" (h0 + 1) (hits ());
  (* a custom capacitance table is not in the fingerprint: bypass *)
  let p3 = Kernel.of_netlist ~caps:(Netlist.node_capacitance net1) net1 in
  Alcotest.(check bool) "caps bypasses the cache" true (p3 != p1);
  Alcotest.(check int) "bypass is not a hit" (h0 + 1) (hits ());
  (* a different structure misses *)
  let p4 = Kernel.of_netlist (Generators.adder_circuit 6) in
  Alcotest.(check bool) "different structure, different plan" true (p4 != p1);
  Alcotest.(check int) "second miss" (m0 + 2) (misses ());
  Kernel.clear_cache ();
  ignore (Kernel.of_netlist net1);
  Alcotest.(check int) "clear forces a recompile" (m0 + 3) (misses ())

(* --- degradation and fault injection --- *)

let test_degradation_chain () =
  Alcotest.(check bool) "compiled chain" true
    (Parsim.degradation_chain Engine.Compiled
    = [ Engine.Compiled; Engine.Bitparallel; Engine.Scalar ])

let test_replay_guarded_degrades_to_scalar () =
  (* a sequential net cannot be chunk-replayed: Compiled fails, Bitparallel
     fails, Scalar answers — two fallbacks, right result *)
  let net = Test_bitsim.sequential_net () in
  let trace = bool_trace net ~n:40 ~seed:21 in
  let vector i = trace.(i) in
  match Parsim.replay_guarded ~engine:Engine.Compiled net ~vector ~n:40 with
  | Error e -> Alcotest.failf "unexpected error: %s" (Hlp_util.Err.to_string e)
  | Ok d ->
      Alcotest.(check bool) "landed on scalar" true
        (d.Parsim.engine_used = Engine.Scalar);
      Alcotest.(check int) "two fallbacks" 2 d.Parsim.fallbacks;
      let direct = Parsim.replay ~engine:Engine.Scalar net ~vector ~n:40 in
      Alcotest.(check bool) "scalar result" true (d.Parsim.value = direct)

let test_faultinject_gate_eval () =
  Hlp_util.Faultinject.with_faults ~rate:1.0 [ Hlp_util.Faultinject.Gate_eval ]
    (fun () ->
      let ker = Kernel.create (Kernel.compile (Generators.adder_circuit 4)) in
      (match Kernel.step ker (Array.make 8 0) with
      | () -> Alcotest.fail "expected the injected fault to raise"
      | exception _ -> ());
      Alcotest.(check bool) "firing counted" true
        (Hlp_util.Faultinject.fired Hlp_util.Faultinject.Gate_eval >= 1))

(* --- checkpoint/resume: the compiled engine under the durability
       contract (journaling identical to the bit-parallel engine) --- *)

exception Crash

let compiled_mc ?checkpoint () =
  Test_durability.units_mc ~engine:Engine.Compiled ?checkpoint ()

let test_compiled_checkpoint_passive () =
  let path = Test_durability.temp "kernel_passive" in
  let plain = compiled_mc () in
  let journaled = compiled_mc ~checkpoint:(P.checkpoint path) () in
  Test_durability.check_mc_identical "journaled vs plain" plain journaled;
  let resumed = compiled_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
  Test_durability.check_mc_identical "resume after completion" plain resumed;
  Sys.remove path

let test_compiled_resume_after_interrupt () =
  let plain = compiled_mc () in
  List.iter
    (fun at ->
      let path = Test_durability.temp "kernel_interrupt" in
      let count = ref 0 in
      let ck =
        P.checkpoint
          ~on_batch:(fun _ ->
            incr count;
            if !count = at then raise Crash)
          path
      in
      (match compiled_mc ~checkpoint:ck () with
      | _ -> Alcotest.fail "expected the interruption to fire"
      | exception Crash -> ());
      let resumed =
        compiled_mc ~checkpoint:(P.checkpoint ~resume:true path) ()
      in
      Test_durability.check_mc_identical
        (Printf.sprintf "compiled interrupted at %d" at)
        plain resumed;
      Sys.remove path)
    [ 1; 4; 9 ]

let test_compiled_sigkill_resume () =
  let plain = compiled_mc () in
  List.iter
    (fun kill_at ->
      let path = Test_durability.temp "kernel_sigkill" in
      let code =
        Test_durability.sigkill_child ~engine:"compiled" ~kill_at path
      in
      Alcotest.(check int)
        (Printf.sprintf "child killed by SIGKILL at unit %d" kill_at)
        137 code;
      let resumed =
        compiled_mc ~checkpoint:(P.checkpoint ~resume:true path) ()
      in
      Test_durability.check_mc_identical
        (Printf.sprintf "compiled SIGKILL at unit %d" kill_at)
        plain resumed;
      Sys.remove path)
    [ 1; 5 ]

let test_compiled_cross_engine_resume () =
  Test_durability.with_telemetry @@ fun () ->
  (* a journal written under bitparallel, resumed under compiled: unit
     means are a pure function of (seed, unit index) and bit-identical
     across the unit engines, so the header binds the record format only
     and the campaign genuinely resumes — no self-heal, journaled units
     reused *)
  let path = Test_durability.temp "kernel_header" in
  let count = ref 0 in
  let ck =
    P.checkpoint
      ~on_batch:(fun _ ->
        incr count;
        if !count = 3 then raise Crash)
      path
  in
  (match Test_durability.units_mc ~engine:Engine.Bitparallel ~checkpoint:ck () with
  | _ -> Alcotest.fail "expected the interruption to fire"
  | exception Crash -> ());
  let plain = compiled_mc () in
  let resumed = compiled_mc ~checkpoint:(P.checkpoint ~resume:true path) () in
  Test_durability.check_mc_identical "cross-engine resume = plain compiled run"
    plain resumed;
  Alcotest.(check bool) "resume counted, not healed" true
    (Hlp_util.Telemetry.count
       (Hlp_util.Telemetry.counter "probprop.ck_resumes")
     >= 1
    && Hlp_util.Telemetry.count
         (Hlp_util.Telemetry.counter "probprop.ck_header_mismatches")
       = 0);
  Sys.remove path

let qcheck_compiled_resume_any_truncation =
  let full_journal =
    lazy
      (let path = Test_durability.temp "kernel_cut_src" in
       ignore (compiled_mc ~checkpoint:(P.checkpoint path) ());
       let raw = Test_durability.read_file path in
       Sys.remove path;
       raw)
  in
  QCheck.Test.make
    ~name:"compiled resume is byte-identical after truncation at any offset"
    ~count:12
    QCheck.(int_bound 1_000_000)
    (fun cut_sel ->
      let raw = Lazy.force full_journal in
      let plain = compiled_mc () in
      let cut = cut_sel mod (String.length raw + 1) in
      let path = Test_durability.temp "kernel_cut" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Test_durability.write_file path (String.sub raw 0 cut);
      let resumed =
        compiled_mc ~checkpoint:(P.checkpoint ~resume:true path) ()
      in
      bits resumed.P.estimate = bits plain.P.estimate
      && resumed.P.cycles_used = plain.P.cycles_used
      && resumed.P.batch_means = plain.P.batch_means)

(* --- sampling estimators under the compiled engine --- *)

let test_sampling_compiled_engine () =
  let ts = Test_bitsim.pinned_cosim Engine.Scalar in
  let tc = Test_bitsim.pinned_cosim Engine.Compiled in
  (* sampler and census read only macro evaluations derived from
     engine-exact output words: bit-identical *)
  Alcotest.(check (float 0.0)) "sampler bit-identical"
    (Hlp_power.Sampling.sampler ~seed:77 ts).Hlp_power.Sampling.value
    (Hlp_power.Sampling.sampler ~seed:77 tc).Hlp_power.Sampling.value;
  Alcotest.(check (float 0.0)) "census bit-identical"
    (Hlp_power.Sampling.census ts).Hlp_power.Sampling.value
    (Hlp_power.Sampling.census tc).Hlp_power.Sampling.value;
  (* adaptive and the gate reference touch gate-level floats: round-off *)
  Test_bitsim.check_rel "adaptive"
    (Hlp_power.Sampling.adaptive ~seed:99 ts).Hlp_power.Sampling.value
    (Hlp_power.Sampling.adaptive ~seed:99 tc).Hlp_power.Sampling.value;
  Test_bitsim.check_rel "gate reference"
    (Hlp_power.Sampling.gate_reference ts)
    (Hlp_power.Sampling.gate_reference tc);
  (* and the absolute pins still hold under the compiled engine *)
  Test_bitsim.check_rel "pinned sampler" Test_bitsim.pinned_sampler
    (Hlp_power.Sampling.sampler ~seed:77 tc).Hlp_power.Sampling.value;
  Test_bitsim.check_rel "pinned gate reference"
    Test_bitsim.pinned_gate_reference
    (Hlp_power.Sampling.gate_reference tc)

(* --- plan structure, counters, validation --- *)

let test_plan_stats () =
  let net = Generators.adder_circuit 8 in
  let plan = Kernel.compile net in
  let st = Kernel.stats plan in
  Alcotest.(check int) "every gate gets a slot" (Netlist.num_gates net)
    st.Kernel.slots;
  Alcotest.(check int) "all nodes" (Netlist.num_nodes net) st.Kernel.nodes;
  Alcotest.(check int) "levels equal the logic depth" (Netlist.logic_depth net)
    st.Kernel.levels;
  Alcotest.(check bool) "segments cover levels" true
    (st.Kernel.segments >= st.Kernel.levels);
  Alcotest.(check bool) "pool holds every pin" true
    (st.Kernel.pool >= 2 * st.Kernel.slots);
  Alcotest.(check bool) "widest level is positive" true (st.Kernel.widest_level >= 1);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stats string mentions slots" true
    (contains (Kernel.stats_string plan) "slots");
  (* segment summary covers exactly the slots *)
  let total =
    Array.fold_left (fun acc (_, k) -> acc + k) 0 (Kernel.segment_summary plan)
  in
  Alcotest.(check int) "segments sum to slots" st.Kernel.slots total

let test_validation () =
  let net = Generators.adder_circuit 4 in
  (match Kernel.compile ~caps:[| 1.0 |] net with
  | _ -> Alcotest.fail "expected Invalid_argument for a short caps table"
  | exception Invalid_argument _ -> ());
  let ker = Kernel.create (Kernel.compile net) in
  match Kernel.lane_switched_capacitance ker with
  | _ -> Alcotest.fail "expected Invalid_argument without ~track_lanes"
  | exception Invalid_argument _ -> ()

let test_set_counting_and_reset () =
  (* warm-up protocol parity with Bitsim: uncounted steps leave no trace,
     reset zeroes, and the counted step after both matches exactly *)
  let net = Generators.alu_circuit 3 in
  let nin = Array.length net.Netlist.inputs in
  let rng = Hlp_util.Prng.create 17 in
  let stimuli = Array.init 6 (fun _ -> random_words rng nin) in
  let bit = Bitsim.create ~track_lanes:true net in
  let ker = Kernel.create ~track_lanes:true (Kernel.compile net) in
  let drive sim_step set_counting reset =
    set_counting false;
    sim_step stimuli.(0);
    sim_step stimuli.(1);
    set_counting true;
    sim_step stimuli.(2);
    reset ();
    sim_step stimuli.(3);
    sim_step stimuli.(4)
  in
  drive (Bitsim.step bit) (Bitsim.set_counting bit) (fun () ->
      Bitsim.reset_counters bit);
  drive (Kernel.step ker) (Kernel.set_counting ker) (fun () ->
      Kernel.reset_counters ker);
  Alcotest.(check (array int)) "toggles" (Bitsim.toggle_counts bit)
    (Kernel.toggle_counts ker);
  Alcotest.(check int) "cycles reset identically" (Bitsim.cycles bit)
    (Kernel.cycles ker);
  float_bits_equal "switched capacitance"
    (Bitsim.switched_capacitance bit)
    (Kernel.switched_capacitance ker);
  Array.iteri
    (fun j b ->
      Alcotest.(check int64)
        (Printf.sprintf "lane %d" j)
        (bits b)
        (bits (Kernel.lane_switched_capacitance ker).(j)))
    (Bitsim.lane_switched_capacitance bit)

(* --- Kernel.reset: one state, many runs --- *)

(* A random sequential netlist: registers with random init values whose
   data paths mix their own output, the inputs and earlier logic, then
   random logic over all of it. *)
let random_sequential seed =
  let rng = Hlp_util.Prng.create seed in
  let module B = Netlist.Builder in
  let b = B.create () in
  let pool = ref (Array.to_list (B.inputs b (1 + Hlp_util.Prng.int rng 4))) in
  let pick () = List.nth !pool (Hlp_util.Prng.int rng (List.length !pool)) in
  let gate () =
    let w =
      match Hlp_util.Prng.int rng 6 with
      | 0 -> B.and_ b [ pick (); pick () ]
      | 1 -> B.or_ b [ pick (); pick (); pick () ]
      | 2 -> B.xor_ b (pick ()) (pick ())
      | 3 -> B.not_ b (pick ())
      | 4 -> B.mux b ~sel:(pick ()) ~a0:(pick ()) ~a1:(pick ())
      | _ -> B.nand_ b [ pick (); pick () ]
    in
    pool := w :: !pool;
    w
  in
  for _ = 0 to Hlp_util.Prng.int rng 4 do
    ignore
      (B.dff_feedback ~init:(Hlp_util.Prng.bool rng) b (fun q ->
           pool := q :: !pool;
           for _ = 1 to Hlp_util.Prng.int rng 4 do
             ignore (gate ())
           done;
           gate ()))
  done;
  for _ = 1 to 5 + Hlp_util.Prng.int rng 20 do
    ignore (gate ())
  done;
  List.iteri
    (fun k w -> if k < 3 then B.output b (Printf.sprintf "o%d" k) w)
    !pool;
  let net = B.finish b in
  Netlist.validate net;
  net

let arb_any_netlist =
  QCheck.make
    ~print:(fun (name, net) -> name ^ ": " ^ Netlist.stats_string net)
    QCheck.Gen.(
      oneof
        [ Test_bitsim.gen_netlist;
          map (fun s -> ("sequential", random_sequential (1 + s))) (int_bound 10_000) ])

(* every observable of two states, floats by bits *)
let states_equal ~track a b n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if Kernel.value a i <> Kernel.value b i then ok := false
  done;
  !ok
  && Kernel.toggle_counts a = Kernel.toggle_counts b
  && Kernel.cycles a = Kernel.cycles b
  && ((not track)
     || Array.for_all2
          (fun x y -> bits x = bits y)
          (Kernel.lane_switched_capacitance a)
          (Kernel.lane_switched_capacitance b))

let qcheck_reset_equals_create =
  QCheck.Test.make ~count:80
    ~name:
      "Kernel.reset equals a fresh create, then steps in lockstep with it"
    (QCheck.triple arb_any_netlist QCheck.small_nat QCheck.bool)
    (fun ((_, net), seed, track) ->
      let nin = Array.length net.Netlist.inputs in
      let n = Netlist.num_nodes net in
      let rng = Hlp_util.Prng.create (seed + 1) in
      let plan = Kernel.compile net in
      let used = Kernel.create ~track_lanes:track plan in
      (* dirty it: random steps with counting toggled in between *)
      for _ = 0 to Hlp_util.Prng.int rng 12 do
        Kernel.set_counting used (Hlp_util.Prng.bool rng);
        Kernel.step used (random_words rng nin)
      done;
      Kernel.reset used;
      let fresh = Kernel.create ~track_lanes:track plan in
      let ok = ref (states_equal ~track used fresh n) in
      for t = 1 to 8 do
        let words = random_words rng nin in
        (* the first step runs on the counting switch reset left *)
        if t > 1 then begin
          let counting = Hlp_util.Prng.bool rng in
          Kernel.set_counting used counting;
          Kernel.set_counting fresh counting
        end;
        Kernel.step used words;
        Kernel.step fresh words;
        ok := !ok && states_equal ~track used fresh n
      done;
      !ok)

(* --- accounting edge words --- *)

(* Kernel (both accounting paths) against Bitsim on hand-picked input
   words: lane 62 alone (min_int, a negative OCaml int), all ones, zero,
   and repeated words, so some counted steps toggle nothing at all. *)
let test_accounting_edge_words () =
  let net = Generators.alu_circuit 3 in
  let nin = Array.length net.Netlist.inputs in
  let n = Netlist.num_nodes net in
  let word_seq =
    [ 0; min_int; min_int; -1; -1; 0; 0; max_int; min_int; 1; 1; -1; 0 ]
  in
  let check ?caps what =
    let bit = Bitsim.create ?caps ~track_lanes:true net in
    let ker = Kernel.create ~track_lanes:true (Kernel.compile ?caps net) in
    let plain = Kernel.create (Kernel.compile ?caps net) in
    List.iteri
      (fun t w ->
        let words = Array.make nin w in
        let toggles_before = Array.copy (Kernel.toggle_counts ker) in
        let lanes_before = Kernel.lane_switched_capacitance ker in
        Bitsim.step bit words;
        Kernel.step ker words;
        Kernel.step plain words;
        let at = Printf.sprintf "%s, step %d" what t in
        for i = 0 to n - 1 do
          Alcotest.(check int) (at ^ ": value") (Bitsim.value bit i)
            (Kernel.value ker i);
          Alcotest.(check int) (at ^ ": untracked value") (Bitsim.value bit i)
            (Kernel.value plain i)
        done;
        Alcotest.(check (array int)) (at ^ ": toggles")
          (Bitsim.toggle_counts bit) (Kernel.toggle_counts ker);
        Alcotest.(check (array int)) (at ^ ": untracked toggles")
          (Bitsim.toggle_counts bit) (Kernel.toggle_counts plain);
        Array.iteri
          (fun j b ->
            Alcotest.(check int64)
              (Printf.sprintf "%s: lane %d" at j)
              (bits b)
              (bits (Kernel.lane_switched_capacitance ker).(j)))
          (Bitsim.lane_switched_capacitance bit);
        (* the same word twice on a combinational circuit: a counted step
           that toggles nothing leaves toggles and lane sums unchanged *)
        if t > 0 && List.nth word_seq (t - 1) = w then begin
          Alcotest.(check (array int)) (at ^ ": no toggles") toggles_before
            (Kernel.toggle_counts ker);
          Array.iteri
            (fun j b ->
              Alcotest.(check int64)
                (Printf.sprintf "%s: lane %d unchanged" at j)
                (bits b)
                (bits (Kernel.lane_switched_capacitance ker).(j)))
            lanes_before
        end)
      word_seq;
    (Kernel.lane_switched_capacitance ker).(62)
  in
  Alcotest.(check bool) "lane 62 charged" true (check "proven caps" > 0.0);
  (* a negative cap fails the compile-time proof: the scatter walk *)
  let caps = Netlist.node_capacitance net in
  caps.(n - 1) <- -.caps.(n - 1) -. 1.0;
  ignore (check ~caps "pathological caps")

(* --- every opcode the kernel compiles --- *)

(* One fixed netlist holding every slot opcode: buf, not, and/or/nand/nor
   at 2, 3 and 5 inputs, xor, xnor and mux, over two levels, with pins
   tied to constant 0 and 1 and a register among the sources. The random
   generators never emit buf, or a nand or nor of three or more inputs,
   so without this netlist a wrong case in the C settle's opcode switch
   could pass every other wall. *)
let every_opcode_net () =
  let module B = Netlist.Builder in
  let b = B.create () in
  let x = B.inputs b 6 in
  let one = B.const_ b true and zero = B.const_ b false in
  let q = B.dff_feedback ~init:true b (fun q -> B.xnor_ b q x.(5)) in
  let layer p =
    let g kind pins = B.gate b kind (Array.map (Array.get p) pins) in
    (* the same, with a last pin tied to a constant *)
    let gc kind pins tie =
      B.gate b kind (Array.append (Array.map (Array.get p) pins) [| tie |])
    in
    [| B.buf b p.(0);
       B.not_ b p.(1);
       g (Gate.And 2) [| 0; 1 |];
       gc (Gate.And 3) [| 2; 3 |] one;
       g (Gate.And 5) [| 0; 1; 2; 3; 4 |];
       g (Gate.Or 2) [| 4; 5 |];
       gc (Gate.Or 3) [| 1; 5 |] zero;
       g (Gate.Or 5) [| 1; 2; 3; 4; 5 |];
       g (Gate.Nand 2) [| 2; 5 |];
       gc (Gate.Nand 3) [| 3; 4 |] one;
       g (Gate.Nand 5) [| 0; 2; 3; 4; 5 |];
       g (Gate.Nor 2) [| 0; 3 |];
       gc (Gate.Nor 3) [| 1; 4 |] zero;
       gc (Gate.Nor 5) [| 0; 1; 2; 5 |] zero;
       B.xor_ b p.(0) p.(5);
       B.xnor_ b p.(2) p.(3);
       B.mux b ~sel:p.(4) ~a0:p.(1) ~a1:p.(2) |]
  in
  let l1 = layer [| x.(0); x.(1); x.(2); x.(3); x.(4); q |] in
  (* the second level reads first-level outputs of every shape *)
  let l2 = layer [| l1.(0); l1.(4); l1.(10); l1.(13); l1.(16); l1.(7) |] in
  Array.iteri (fun k w -> B.output b (Printf.sprintf "o%d" k) w) l2;
  B.finish b

let test_every_opcode () =
  let net = every_opcode_net () in
  let opcodes =
    Array.to_list (Array.map fst (Kernel.segment_summary (Kernel.compile net)))
  in
  Alcotest.(check (list string)) "every opcode compiled"
    (List.sort compare
       [ "buf"; "not"; "and2"; "or2"; "nand2"; "nor2"; "xor"; "xnor"; "mux";
         "andn"; "orn"; "nandn"; "norn" ])
    (List.sort_uniq compare opcodes);
  let nin = Array.length net.Netlist.inputs in
  let n = Netlist.num_nodes net in
  let rng = Hlp_util.Prng.create 23 in
  let edge = [| 0; -1; min_int |] in
  let stimuli =
    List.map (Array.make nin) [ 0; -1; min_int; -1; min_int; min_int; 0; 0 ]
    (* a different edge word on each input, rotating *)
    @ List.init 6 (fun t -> Array.init nin (fun k -> edge.((k + t) mod 3)))
    @ List.init 20 (fun _ -> random_words rng nin)
  in
  let bit = Bitsim.create ~track_lanes:true net in
  let ker = Kernel.create ~track_lanes:true (Kernel.compile net) in
  let plain = Kernel.create (Kernel.compile net) in
  List.iteri
    (fun t words ->
      Bitsim.step bit words;
      Kernel.step ker words;
      Kernel.step plain words;
      let at = Printf.sprintf "step %d" t in
      for i = 0 to n - 1 do
        Alcotest.(check int) (at ^ ": value") (Bitsim.value bit i)
          (Kernel.value ker i);
        Alcotest.(check int) (at ^ ": untracked value") (Bitsim.value bit i)
          (Kernel.value plain i)
      done;
      Alcotest.(check (array int)) (at ^ ": toggles")
        (Bitsim.toggle_counts bit) (Kernel.toggle_counts ker);
      Alcotest.(check (array int)) (at ^ ": untracked toggles")
        (Bitsim.toggle_counts bit) (Kernel.toggle_counts plain);
      Array.iteri
        (fun j b ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: lane %d" at j)
            (bits b)
            (bits (Kernel.lane_switched_capacitance ker).(j)))
        (Bitsim.lane_switched_capacitance bit))
    stimuli

(* --- four units per pass: the wide state against four one-unit states --- *)

let random_word rng = Int64.to_int (Hlp_util.Prng.bits64 rng)

(* Step a wide state and four one-unit states of the same plan on the same
   words, unit [u] driven by slot [u] of each input's group: every node
   word, every unit's toggle counts and every unit's capacitance bits must
   agree. The wide state runs twice, the second time after a reset from
   the first run's dirty state, as a reused per-domain state does. *)
let wide_agrees ?(word = random_word) net ~steps ~seed =
  let width = Kernel.Wide.width in
  let nin = Array.length net.Netlist.inputs and n = Netlist.num_nodes net in
  let plan = Kernel.compile net in
  let wide = Kernel.Wide.create plan in
  let rng = Hlp_util.Prng.create seed in
  let run () =
    Kernel.Wide.reset wide;
    let units = Array.init width (fun _ -> Kernel.create plan) in
    let ok = ref true in
    for _ = 1 to steps do
      let words = Array.init (width * nin) (fun _ -> word rng) in
      Kernel.Wide.step wide words;
      Array.iteri
        (fun u s ->
          Kernel.step s (Array.init nin (fun k -> words.((width * k) + u)));
          for i = 0 to n - 1 do
            if Kernel.Wide.value wide ~unit:u i <> Kernel.value s i then
              ok := false
          done)
        units
    done;
    Array.iteri
      (fun u s ->
        ok :=
          !ok
          && Kernel.Wide.toggle_counts wide ~unit:u = Kernel.toggle_counts s
          && bits (Kernel.Wide.switched_capacitance wide ~unit:u)
             = bits (Kernel.switched_capacitance s))
      units;
    !ok
  in
  let first = run () in
  first && run ()

(* without AVX2 there is no wide state to compare, and Monte Carlo runs
   one unit at a time *)
let qcheck_wide_differential =
  QCheck.Test.make ~count:60
    ~name:"wide state matches four one-unit states (values, toggles, caps)"
    (QCheck.pair arb_any_netlist QCheck.small_nat)
    (fun ((_, net), seed) ->
      (not Kernel.Wide.available) || wide_agrees net ~steps:5 ~seed:(seed + 1))

let test_wide_fixed_nets () =
  if not Kernel.Wide.available then begin
    (match Kernel.Wide.create (Kernel.compile (Test_bitsim.sequential_net ())) with
    | _ -> Alcotest.fail "expected Invalid_argument without AVX2"
    | exception Invalid_argument _ -> ());
    Alcotest.skip ()
  end;
  Alcotest.(check bool) "sequential counter" true
    (wide_agrees (Test_bitsim.sequential_net ()) ~steps:50 ~seed:7);
  (* every opcode of the wide switch, on words that set the sign and tag
     neighbours: a wrong case or a lost tag bit shows here *)
  let edge = [| 0; -1; min_int; max_int; 1 |] in
  Alcotest.(check bool) "every opcode, edge words" true
    (wide_agrees (every_opcode_net ()) ~steps:40 ~seed:3 ~word:(fun rng ->
         edge.(Hlp_util.Prng.int rng (Array.length edge))));
  Alcotest.(check bool) "every opcode, random words" true
    (wide_agrees (every_opcode_net ()) ~steps:20 ~seed:5);
  (* a wide step is four unit-steps in the kernel counters *)
  Test_durability.with_telemetry @@ fun () ->
  let net = Generators.adder_circuit 4 in
  let wide = Kernel.Wide.create (Kernel.compile net) in
  Kernel.Wide.step wide
    (Array.make (Kernel.Wide.width * Array.length net.Netlist.inputs) 0);
  let count name = Hlp_util.Telemetry.(count (counter name)) in
  Alcotest.(check int) "kernel.steps" Kernel.Wide.width (count "kernel.steps");
  Alcotest.(check int) "kernel.lane_cycles" (Kernel.Wide.width * lanes)
    (count "kernel.lane_cycles")

(* --- Monte Carlo in passes: the stop rule per unit --- *)

(* [n] units of a small adder, stopping on the unit count, optionally
   resumed from a prefix of unit means: everything a caller can observe,
   floats as bits *)
let mc_observed ~engine ?resume_means n =
  let seen = ref [] in
  let r =
    Parsim.monte_carlo_units ?resume_means
      ~on_unit:(fun u m -> seen := (u, bits m) :: !seen)
      ~engine (Generators.adder_circuit 4) ~batch:4 ~seed:19
      ~stop:(fun ~means ~cycles:_ -> Array.length means >= n)
  in
  ( Array.map bits r.Parsim.unit_means,
    r.Parsim.cycles,
    bits r.Parsim.mean,
    List.rev !seen )

let test_mc_pass_stop_offsets () =
  (* 1..13 units put the stop at every offset within a pass, over three
     passes; the resumed runs start their first pass mid-sequence *)
  let reference =
    (Parsim.monte_carlo_units ~engine:Engine.Bitparallel
       (Generators.adder_circuit 4) ~batch:4 ~seed:19
       ~stop:(fun ~means ~cycles:_ -> Array.length means >= 13))
      .Parsim.unit_means
  in
  for n = 1 to 13 do
    List.iter
      (fun r ->
        if r <= n then begin
          let resume_means =
            if r = 0 then None else Some (Array.sub reference 0 r)
          in
          let at = Printf.sprintf "%d units, %d resumed" n r in
          let um_b, cy_b, mean_b, seen_b =
            mc_observed ~engine:Engine.Bitparallel ?resume_means n
          and um_c, cy_c, mean_c, seen_c =
            mc_observed ~engine:Engine.Compiled ?resume_means n
          in
          Alcotest.(check (array int64)) (at ^ ": unit means") um_b um_c;
          Alcotest.(check int) (at ^ ": cycles") cy_b cy_c;
          Alcotest.(check int64) (at ^ ": mean") mean_b mean_c;
          Alcotest.(check (list (pair int int64))) (at ^ ": on_unit") seen_b
            seen_c
        end)
      [ 0; 1; 2; 3; 5 ]
  done

let test_mc_pass_counters () =
  if not Kernel.Wide.available then Alcotest.skip ();
  let width = Kernel.Wide.width in
  for n = 1 to 9 do
    Test_durability.with_telemetry @@ fun () ->
    ignore (mc_observed ~engine:Engine.Compiled n);
    let count name = Hlp_util.Telemetry.(count (counter name)) in
    let passes = (n + width - 1) / width in
    let at = Printf.sprintf "%d units" n in
    Alcotest.(check int) (at ^ ": passes") passes (count "parsim.mc_passes");
    Alcotest.(check int) (at ^ ": kept") n (count "parsim.mc_units");
    Alcotest.(check int) (at ^ ": dropped") ((passes * width) - n)
      (count "parsim.mc_units_dropped");
    Alcotest.(check int) (at ^ ": unit-steps") (passes * width * 4)
      (count "kernel.steps")
  done

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_step_differential;
    Alcotest.test_case "kernel differential on sequential circuit" `Quick
      test_step_differential_sequential;
    Alcotest.test_case "reset state and first-step latch" `Quick
      test_reset_state;
    Alcotest.test_case "scalar lane matches funcsim (combinational)" `Quick
      test_scalar_variant_combinational;
    Alcotest.test_case "scalar lane matches funcsim (sequential)" `Quick
      test_scalar_variant_sequential;
    QCheck_alcotest.to_alcotest qcheck_replay_differential;
    Alcotest.test_case "replay chunk-boundary lengths" `Quick
      test_replay_edge_lengths;
    Alcotest.test_case "compiled replay rejects sequential nets" `Quick
      test_replay_rejects_sequential;
    QCheck_alcotest.to_alcotest qcheck_replay_held;
    Alcotest.test_case "held and constant traces at chunk-boundary lengths"
      `Quick test_replay_quiet_lengths;
    Alcotest.test_case "a change on a chunk's 64th vector is charged" `Quick
      test_replay_change_on_64th;
    Alcotest.test_case "idle chunks counted on constant and uniform traces"
      `Quick test_replay_idle_chunks_counted;
    Alcotest.test_case "a change on each lane: charged, swept, transposed"
      `Quick test_replay_lane_positions;
    Alcotest.test_case "lane sweeps (AVX2 and portable) match scan_lanes"
      `Quick test_sweeps_match_scan_lanes;
    Alcotest.test_case "monte carlo byte-identical to bitparallel" `Quick
      test_mc_compiled_equals_bitparallel;
    Alcotest.test_case "monte carlo byte-identical on sequential net" `Quick
      test_mc_compiled_equals_bitparallel_sequential;
    Alcotest.test_case "golden pins (compiled engine)" `Quick
      test_golden_pins_compiled;
    Alcotest.test_case "golden pins (scalar engine)" `Quick
      test_golden_pins_scalar;
    Alcotest.test_case "constant gates levelize and fold" `Quick
      test_const_gates;
    Alcotest.test_case "dangling nodes are scheduled and accounted" `Quick
      test_dangling_nodes;
    Alcotest.test_case "gateless netlist compiles to an empty schedule" `Quick
      test_no_gates;
    Alcotest.test_case "inputless sequential netlist" `Quick test_no_inputs;
    Alcotest.test_case "plan cache: physical sharing, bypass, clear" `Quick
      test_plan_cache;
    Alcotest.test_case "degradation chain shape" `Quick test_degradation_chain;
    Alcotest.test_case "guarded replay degrades compiled -> scalar" `Quick
      test_replay_guarded_degrades_to_scalar;
    Alcotest.test_case "fault injection trips inside the compiled step" `Quick
      test_faultinject_gate_eval;
    Alcotest.test_case "compiled checkpoint does not perturb the estimate"
      `Quick test_compiled_checkpoint_passive;
    Alcotest.test_case "compiled resume after interrupt is byte-identical"
      `Quick test_compiled_resume_after_interrupt;
    Alcotest.test_case "compiled SIGKILLed child resumes byte-identical"
      `Quick test_compiled_sigkill_resume;
    Alcotest.test_case "cross-engine resume reuses journaled units" `Quick
      test_compiled_cross_engine_resume;
    QCheck_alcotest.to_alcotest qcheck_compiled_resume_any_truncation;
    Alcotest.test_case "sampling estimators under the compiled engine" `Quick
      test_sampling_compiled_engine;
    Alcotest.test_case "plan stats and segment summary" `Quick test_plan_stats;
    Alcotest.test_case "compile and accessor validation" `Quick
      test_validation;
    Alcotest.test_case "set_counting / reset_counters parity" `Quick
      test_set_counting_and_reset;
    QCheck_alcotest.to_alcotest qcheck_reset_equals_create;
    Alcotest.test_case "accounting edge words match bitsim" `Quick
      test_accounting_edge_words;
    Alcotest.test_case "every opcode matches bitsim on edge words" `Quick
      test_every_opcode;
    QCheck_alcotest.to_alcotest qcheck_wide_differential;
    Alcotest.test_case "wide state on fixed nets and edge words" `Quick
      test_wide_fixed_nets;
    Alcotest.test_case "monte carlo passes stop at every unit" `Quick
      test_mc_pass_stop_offsets;
    Alcotest.test_case "monte carlo pass and dropped-unit counters" `Quick
      test_mc_pass_counters;
  ]
