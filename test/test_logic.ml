open Hlp_logic

(* Evaluate a purely combinational netlist on one input assignment by a
   direct reference interpreter (independent of the simulator). *)
let eval_circuit net inputs =
  let values = Array.make (Netlist.num_nodes net) false in
  Array.iteri (fun k w -> values.(w) <- inputs.(k)) net.Netlist.inputs;
  Array.iteri
    (fun i (node : Netlist.node) ->
      match node.Netlist.kind with
      | Gate.Input | Gate.Dff -> ()
      | kind ->
          values.(i) <-
            Gate.eval kind (Array.map (fun w -> values.(w)) node.Netlist.fanin))
    net.Netlist.nodes;
  values

let out_word net values prefix =
  let v = ref 0 in
  Array.iter
    (fun (name, w) ->
      let pl = String.length prefix in
      if String.length name > pl && String.sub name 0 pl = prefix then
        match int_of_string_opt (String.sub name pl (String.length name - pl)) with
        | Some i -> if values.(w) then v := !v lor (1 lsl i)
        | None -> ())
    net.Netlist.outputs;
  !v

let out_bit net values name =
  let _, w = Array.to_list net.Netlist.outputs |> List.find (fun (n, _) -> n = name) in
  values.(w)

let input_vec ~n a b =
  Array.init (2 * n) (fun i ->
      if i < n then Hlp_util.Bits.bit a i else Hlp_util.Bits.bit b (i - n))

let test_gate_eval () =
  Alcotest.(check bool) "and" true (Gate.eval (Gate.And 3) [| true; true; true |]);
  Alcotest.(check bool) "and f" false (Gate.eval (Gate.And 3) [| true; false; true |]);
  Alcotest.(check bool) "nand" true (Gate.eval (Gate.Nand 2) [| true; false |]);
  Alcotest.(check bool) "nor" true (Gate.eval (Gate.Nor 2) [| false; false |]);
  Alcotest.(check bool) "xor" true (Gate.eval Gate.Xor [| true; false |]);
  Alcotest.(check bool) "xnor" true (Gate.eval Gate.Xnor [| true; true |]);
  Alcotest.(check bool) "mux sel=0" true (Gate.eval Gate.Mux [| false; true; false |]);
  Alcotest.(check bool) "mux sel=1" false (Gate.eval Gate.Mux [| true; true; false |])

let test_gate_arity_consistency () =
  List.iter
    (fun kind ->
      let n = Gate.arity kind in
      Alcotest.(check bool)
        (Gate.name kind ^ " evaluates")
        true
        (let _ = Gate.eval kind (Array.make n false) in
         true))
    Gate.all_combinational

let test_adder_exhaustive () =
  let n = 4 in
  let net = Generators.adder_circuit n in
  Netlist.validate net;
  for a = 0 to 15 do
    for b = 0 to 15 do
      let values = eval_circuit net (input_vec ~n a b) in
      let sum = out_word net values "s" in
      let cout = out_bit net values "cout" in
      let expect = a + b in
      Alcotest.(check int) "sum" (expect land 15) sum;
      Alcotest.(check bool) "carry" (expect > 15) cout
    done
  done

let test_multiplier_exhaustive () =
  let n = 4 in
  let net = Generators.multiplier_circuit n in
  Netlist.validate net;
  for a = 0 to 15 do
    for b = 0 to 15 do
      let values = eval_circuit net (input_vec ~n a b) in
      Alcotest.(check int) "product" (a * b) (out_word net values "p")
    done
  done

let test_comparator_exhaustive () =
  let n = 4 in
  let net = Generators.comparator_circuit n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let values = eval_circuit net (input_vec ~n a b) in
      Alcotest.(check bool) "lt" (a < b) (out_bit net values "lt");
      Alcotest.(check bool) "eq" (a = b) (out_bit net values "eq")
    done
  done

let test_max_circuit () =
  let n = 4 in
  let net = Generators.max_circuit n in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let values = eval_circuit net (input_vec ~n a b) in
      Alcotest.(check int) "max" (max a b) (out_word net values "m")
    done
  done

let test_alu_exhaustive () =
  let n = 4 in
  let net = Generators.alu_circuit n in
  (* inputs: op0 op1 a0..a3 b0..b3 *)
  for op = 0 to 3 do
    for a = 0 to 15 do
      for b = 0 to 15 do
        let vec =
          Array.init (2 + (2 * n)) (fun i ->
              if i < 2 then Hlp_util.Bits.bit op i
              else if i < 2 + n then Hlp_util.Bits.bit a (i - 2)
              else Hlp_util.Bits.bit b (i - 2 - n))
        in
        let values = eval_circuit net vec in
        let expect =
          match op with
          | 0 -> a land b
          | 1 -> a lor b
          | 2 -> a lxor b
          | _ -> (a + b) land 15
        in
        Alcotest.(check int) "alu" expect (out_word net values "r")
      done
    done
  done

let test_parity () =
  let net = Generators.parity_circuit 7 in
  for v = 0 to 127 do
    let vec = Array.init 7 (fun i -> Hlp_util.Bits.bit v i) in
    let values = eval_circuit net vec in
    Alcotest.(check bool) "parity" (Hlp_util.Bits.popcount v mod 2 = 1)
      (out_bit net values "parity")
  done

let test_carry_select_adder_exhaustive () =
  let n = 6 in
  List.iter
    (fun block ->
      let b = Netlist.Builder.create () in
      let x = Netlist.Builder.inputs ~prefix:"a" b n in
      let y = Netlist.Builder.inputs ~prefix:"b" b n in
      let sum, cout = Generators.carry_select_adder b ~block x y in
      Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "s%d" i) w) sum;
      Netlist.Builder.output b "cout" cout;
      let net = Netlist.Builder.finish b in
      Netlist.validate net;
      for a = 0 to 63 do
        for c = 0 to 63 do
          let values = eval_circuit net (input_vec ~n a c) in
          Alcotest.(check int)
            (Printf.sprintf "csa b=%d %d+%d" block a c)
            ((a + c) land 63)
            (out_word net values "s");
          Alcotest.(check bool) "cout" (a + c > 63) (out_bit net values "cout")
        done
      done)
    [ 2; 3; 4 ]

let test_carry_select_faster_but_bigger () =
  let n = 16 in
  let build f =
    let b = Netlist.Builder.create () in
    let x = Netlist.Builder.inputs ~prefix:"a" b n in
    let y = Netlist.Builder.inputs ~prefix:"b" b n in
    let sum, _ = f b x y in
    Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "s%d" i) w) sum;
    Netlist.Builder.finish b
  in
  let ripple = build (fun b x y -> Generators.ripple_adder b x y) in
  let csel = build (fun b x y -> Generators.carry_select_adder b ~block:4 x y) in
  Alcotest.(check bool) "carry-select is faster" true
    (Netlist.critical_path csel < Netlist.critical_path ripple);
  Alcotest.(check bool) "carry-select is bigger" true
    (Netlist.total_capacitance csel > Netlist.total_capacitance ripple)

let test_wallace_multiplier_exhaustive () =
  let n = 5 in
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.inputs ~prefix:"a" b n in
  let y = Netlist.Builder.inputs ~prefix:"b" b n in
  let p = Generators.wallace_multiplier b x y in
  Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "p%d" i) w) p;
  let net = Netlist.Builder.finish b in
  Netlist.validate net;
  for a = 0 to 31 do
    for c = 0 to 31 do
      let values = eval_circuit net (input_vec ~n a c) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a c) (a * c) (out_word net values "p")
    done
  done

let test_wallace_shallower_than_array () =
  let n = 8 in
  let build f =
    let b = Netlist.Builder.create () in
    let x = Netlist.Builder.inputs ~prefix:"a" b n in
    let y = Netlist.Builder.inputs ~prefix:"b" b n in
    let p = f b x y in
    Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "p%d" i) w) p;
    Netlist.Builder.finish b
  in
  let array_m = build Generators.array_multiplier in
  let wallace = build Generators.wallace_multiplier in
  Alcotest.(check bool) "wallace shallower" true
    (Netlist.critical_path wallace < Netlist.critical_path array_m)

let test_csd_digits () =
  let value_of digits =
    List.fold_left (fun (acc, k) d -> (acc + (d lsl k), k + 1)) (0, 0) digits |> fst
  in
  for c = 0 to 1000 do
    let digits = Generators.csd_digits c in
    Alcotest.(check int) "csd value" c (value_of digits);
    (* canonical: no two adjacent nonzero digits *)
    let rec check = function
      | a :: b :: rest ->
          Alcotest.(check bool) "no adjacent nonzeros" true (a = 0 || b = 0);
          check (b :: rest)
      | _ -> ()
    in
    check digits
  done

let test_constant_multiplier () =
  let n = 6 and width = 12 in
  List.iter
    (fun c ->
      let b = Netlist.Builder.create () in
      let x = Netlist.Builder.inputs ~prefix:"a" b n in
      let p = Generators.constant_multiplier b x c ~width in
      Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "p%d" i) w) p;
      let net = Netlist.Builder.finish b in
      Netlist.validate net;
      for a = 0 to 63 do
        let vec = Array.init n (fun i -> Hlp_util.Bits.bit a i) in
        let values = eval_circuit net vec in
        Alcotest.(check int)
          (Printf.sprintf "%d * %d" a c)
          ((a * c) land Hlp_util.Bits.mask width)
          (out_word net values "p")
      done)
    [ 0; 1; 3; 7; 11; 23; 45; 60 ]

let test_subtractor () =
  let n = 5 in
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.inputs ~prefix:"a" b n in
  let y = Netlist.Builder.inputs ~prefix:"b" b n in
  let d, noborrow = Generators.subtractor b x y in
  Array.iteri (fun i w -> Netlist.Builder.output b (Printf.sprintf "d%d" i) w) d;
  Netlist.Builder.output b "nb" noborrow;
  let net = Netlist.Builder.finish b in
  for a = 0 to 31 do
    for c = 0 to 31 do
      let values = eval_circuit net (input_vec ~n a c) in
      Alcotest.(check int) "diff" ((a - c) land 31) (out_word net values "d");
      Alcotest.(check bool) "no-borrow = a>=b" (a >= c) (out_bit net values "nb")
    done
  done

let test_structural_stats () =
  let net = Generators.adder_circuit 8 in
  Alcotest.(check bool) "has gates" true (Netlist.num_gates net > 8);
  Alcotest.(check bool) "positive cap" true (Netlist.total_capacitance net > 0.0);
  Alcotest.(check bool) "positive GE" true (Netlist.gate_equivalents net > 0.0);
  Alcotest.(check bool) "depth grows with width" true
    (Netlist.logic_depth (Generators.adder_circuit 16) > Netlist.logic_depth net);
  Alcotest.(check bool) "critical path positive" true (Netlist.critical_path net > 0.0)

let test_multiplier_bigger_than_adder () =
  (* sanity for complexity models: multiplier >> adder in every size metric *)
  let a = Generators.adder_circuit 8 and m = Generators.multiplier_circuit 8 in
  Alcotest.(check bool) "gates" true (Netlist.num_gates m > 4 * Netlist.num_gates a);
  Alcotest.(check bool) "cap" true
    (Netlist.total_capacitance m > 4.0 *. Netlist.total_capacitance a)

let test_dff_feedback () =
  (* toggle flip-flop: q' = not q *)
  let b = Netlist.Builder.create () in
  let q = Netlist.Builder.dff_feedback b (fun q -> Netlist.Builder.not_ b q) in
  Netlist.Builder.output b "q" q;
  let net = Netlist.Builder.finish b in
  Netlist.validate net;
  Alcotest.(check int) "one dff" 1 (Netlist.num_dffs net)

let test_unconnected_dff_fails () =
  let b = Netlist.Builder.create () in
  let i = Netlist.Builder.input b in
  ignore i;
  Alcotest.(check bool) "finish ok when connected" true
    (let _ = Netlist.Builder.finish b in
     true)

let test_random_logic_valid () =
  let rng = Hlp_util.Prng.create 99 in
  for _ = 1 to 10 do
    let net = Generators.random_logic rng ~inputs:8 ~outputs:4 ~gates:100 in
    Netlist.validate net;
    Alcotest.(check int) "gate count" 100 (Netlist.num_gates net)
  done

let test_random_function_circuit () =
  let rng = Hlp_util.Prng.create 4 in
  let net = Generators.random_function_circuit rng ~inputs:5 ~minterm_prob:0.3 in
  Netlist.validate net;
  (* output must equal characteristic function of the chosen minterm set:
     at least check it is a well-formed single-output circuit *)
  Alcotest.(check int) "one output" 1 (Array.length net.Netlist.outputs)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_verilog_export () =
  let net = Generators.adder_circuit 4 in
  let v = Export.to_verilog ~module_name:"adder4" net in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains v needle))
    [ "module adder4"; "endmodule"; "xor ("; "and ("; "assign cout" ];
  (* sequential circuits get clocked always blocks *)
  let b = Netlist.Builder.create () in
  let q = Netlist.Builder.dff_feedback ~init:true b (fun q -> Netlist.Builder.not_ b q) in
  Netlist.Builder.output b "q" q;
  let seq = Netlist.Builder.finish b in
  let vs = Export.to_verilog seq in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("seq contains " ^ needle) true (contains vs needle))
    [ "input clk, rst"; "always @(posedge clk"; "<= 1'b1" ]

let test_dot_export () =
  let net = Generators.adder_circuit 2 in
  let d = Export.to_dot net in
  Alcotest.(check bool) "digraph" true (String.length d > 50);
  Alcotest.(check bool) "too-large rejected" true
    (try ignore (Export.to_dot ~max_nodes:10 (Generators.multiplier_circuit 8)); false
     with Invalid_argument _ -> true)

let test_builder_error_paths () =
  (* an unconnected feedback dff must be caught at finish *)
  let module B = Netlist.Builder in
  Alcotest.(check bool) "rename non-monotone rejected" true
    (let m = Hlp_bdd.Bdd.manager () in
     let f = Hlp_bdd.Bdd.and_ m (Hlp_bdd.Bdd.var m 0) (Hlp_bdd.Bdd.var m 1) in
     try ignore (Hlp_bdd.Bdd.rename m (fun v -> 1 - v) f); false
     with Invalid_argument _ -> true);
  (* invalid netlist structures are rejected by validate *)
  let b = B.create () in
  let i = B.input b in
  B.output b "o" (B.not_ b i);
  let net = B.finish b in
  Netlist.validate net;
  Alcotest.(check bool) "ok netlist validates" true true

let qcheck_adder_correct =
  QCheck.Test.make ~name:"wide ripple adder adds"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let n = 16 in
      let net = Generators.adder_circuit n in
      let values = eval_circuit net (input_vec ~n a b) in
      out_word net values "s" = (a + b) land 0xFFFF)

let qcheck_mult_commutes =
  QCheck.Test.make ~name:"array multiplier commutes"
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let n = 8 in
      let net = Generators.multiplier_circuit n in
      let va = eval_circuit net (input_vec ~n a b) in
      let vb = eval_circuit net (input_vec ~n b a) in
      out_word net va "p" = out_word net vb "p" && out_word net va "p" = a * b)

(* --- the fingerprint walk: a persisted value that must never change --- *)

(* The byte-at-a-time FNV-1a walk, with the cell names built by
   [Printf.sprintf]: the reference the allocation-free walk must equal bit
   for bit, since checkpoint, replay-cache and snapshot headers store it. *)
let reference_fingerprint (t : Netlist.t) =
  let name = function
    | Gate.Input -> "input"
    | Gate.Const b -> if b then "one" else "zero"
    | Gate.Buf -> "buf"
    | Gate.Not -> "inv"
    | Gate.And n -> Printf.sprintf "and%d" n
    | Gate.Or n -> Printf.sprintf "or%d" n
    | Gate.Nand n -> Printf.sprintf "nand%d" n
    | Gate.Nor n -> Printf.sprintf "nor%d" n
    | Gate.Xor -> "xor2"
    | Gate.Xnor -> "xnor2"
    | Gate.Mux -> "mux2"
    | Gate.Dff -> "dff"
  in
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let mix_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) prime
  in
  let mix_int i =
    let v = Int64.of_int i in
    for k = 0 to 7 do
      mix_byte (Int64.to_int (Int64.shift_right_logical v (8 * k)))
    done
  in
  let mix_string s = String.iter (fun c -> mix_byte (Char.code c)) s in
  Array.iter
    (fun (n : Netlist.node) ->
      mix_string (name n.Netlist.kind);
      mix_int (Array.length n.Netlist.fanin);
      Array.iter mix_int n.Netlist.fanin)
    t.Netlist.nodes;
  Array.iter mix_int t.Netlist.inputs;
  Array.iter mix_string t.Netlist.input_names;
  Array.iter
    (fun (name, w) ->
      mix_string name;
      mix_int w)
    t.Netlist.outputs;
  Array.iter mix_int t.Netlist.dffs;
  Array.iter (fun b -> mix_byte (Bool.to_int b)) t.Netlist.dff_init;
  !h

let nary_kinds n = [ Gate.And n; Gate.Or n; Gate.Nand n; Gate.Nor n ]

(* One n-ary gate of [arity] pins (up to 40, past the prebuilt names) over
   wires picked at random; with [long], behind a chain of inverters that
   puts its fanin and output ids past 65,535, where an int's third byte is
   non-zero. *)
let wide_netlist ~seed ~arity ~long =
  let module B = Netlist.Builder in
  let rng = Hlp_util.Prng.create (seed + 1) in
  let b = B.create () in
  let ins = B.inputs ~prefix:(Printf.sprintf "in%d_" seed) b (1 + (seed mod 4)) in
  let last = ref ins.(0) in
  if long then
    for _ = 1 to 65_536 + Hlp_util.Prng.int rng 300 do
      last := B.not_ b !last
    done;
  let pick () = Hlp_util.Prng.int rng (B.count b) in
  let kind = List.nth (nary_kinds arity) (Hlp_util.Prng.int rng 4) in
  let g = B.gate b kind (Array.init arity (fun _ -> pick ())) in
  let q = B.dff ~init:(Hlp_util.Prng.bool rng) b g in
  B.output b "wide" g;
  B.output b (Printf.sprintf "q%d" (B.count b)) (B.xor_ b q !last);
  B.finish b

let qcheck_fingerprint_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"Netlist.fingerprint equals the byte-at-a-time FNV-1a walk"
    Test_kernel.arb_any_netlist
    (fun (_, net) -> Netlist.fingerprint net = reference_fingerprint net)

let qcheck_fingerprint_wide_and_long =
  QCheck.Test.make ~count:12
    ~name:"Netlist.fingerprint equals the reference past the prebuilt arities and 16-bit wire ids"
    QCheck.(triple small_nat (int_range 2 40) bool)
    (fun (seed, arity, long) ->
      let net = wide_netlist ~seed ~arity ~long in
      Netlist.fingerprint net = reference_fingerprint net)

let test_fingerprint_pins () =
  (* the daemon's circuits, as every earlier build computed them *)
  List.iter
    (fun (name, gen, width, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %d" name width)
        want
        (Printf.sprintf "%Lx" (Netlist.fingerprint (gen width))))
    [ ("multiplier", Generators.multiplier_circuit, 8, "1587d0f852eccbc6");
      ("alu", Generators.alu_circuit, 8, "c4827c2f4ae82f5f");
      ("adder", Generators.adder_circuit, 16, "20e96d30052b8276");
      ("comparator", Generators.comparator_circuit, 16, "3ba3c8e866afed6c");
      ("adder", Generators.adder_circuit, 8, "88ceaf6cd1c86e7c");
      ("comparator", Generators.comparator_circuit, 8, "d36d3f7197926665") ]

let test_gate_names () =
  for n = 2 to 40 do
    List.iter2
      (fun kind want -> Alcotest.(check string) want want (Gate.name kind))
      (nary_kinds n)
      [ Printf.sprintf "and%d" n; Printf.sprintf "or%d" n;
        Printf.sprintf "nand%d" n; Printf.sprintf "nor%d" n ]
  done

let suite =
  [
    Alcotest.test_case "gate eval" `Quick test_gate_eval;
    Alcotest.test_case "gate arity consistency" `Quick test_gate_arity_consistency;
    Alcotest.test_case "adder exhaustive" `Quick test_adder_exhaustive;
    Alcotest.test_case "multiplier exhaustive" `Quick test_multiplier_exhaustive;
    Alcotest.test_case "comparator exhaustive" `Quick test_comparator_exhaustive;
    Alcotest.test_case "max circuit" `Quick test_max_circuit;
    Alcotest.test_case "alu exhaustive" `Slow test_alu_exhaustive;
    Alcotest.test_case "parity" `Quick test_parity;
    Alcotest.test_case "carry-select adder" `Quick test_carry_select_adder_exhaustive;
    Alcotest.test_case "carry-select tradeoff" `Quick test_carry_select_faster_but_bigger;
    Alcotest.test_case "wallace multiplier" `Quick test_wallace_multiplier_exhaustive;
    Alcotest.test_case "wallace shallower" `Quick test_wallace_shallower_than_array;
    Alcotest.test_case "csd digits" `Quick test_csd_digits;
    Alcotest.test_case "constant multiplier" `Quick test_constant_multiplier;
    Alcotest.test_case "subtractor" `Quick test_subtractor;
    Alcotest.test_case "structural stats" `Quick test_structural_stats;
    Alcotest.test_case "multiplier bigger than adder" `Quick test_multiplier_bigger_than_adder;
    Alcotest.test_case "dff feedback" `Quick test_dff_feedback;
    Alcotest.test_case "builder finish" `Quick test_unconnected_dff_fails;
    Alcotest.test_case "random logic valid" `Quick test_random_logic_valid;
    Alcotest.test_case "random function circuit" `Quick test_random_function_circuit;
    Alcotest.test_case "verilog export" `Quick test_verilog_export;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "builder error paths" `Quick test_builder_error_paths;
    QCheck_alcotest.to_alcotest qcheck_adder_correct;
    QCheck_alcotest.to_alcotest qcheck_mult_commutes;
    Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins;
    Alcotest.test_case "n-ary gate names" `Quick test_gate_names;
    QCheck_alcotest.to_alcotest qcheck_fingerprint_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_fingerprint_wide_and_long;
  ]
