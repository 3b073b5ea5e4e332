open Hlp_util

(* Guarded execution: typed errors, guards, fault injection, budgets, and
   the degradation chains. The property under test throughout: whatever is
   injected or exhausted, the pipeline returns a correct estimate or a
   typed [Err.t] — never an uncaught exception, never a silently wrong
   answer. *)

(* Every test leaves the global telemetry registry disabled and zeroed so
   the other suites are unaffected (same discipline as test_telemetry). *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* CI runs this suite across a small matrix of fault seeds (HLP_FAULT_SEED)
   so the injected-fault schedules differ per job while each job stays
   fully deterministic. Unset (local runs), the offset is 0. *)
let seed_offset =
  match Option.bind (Sys.getenv_opt "HLP_FAULT_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0

let err_class f =
  match f () with
  | _ -> None
  | exception Err.Error e -> Some (Err.class_name e)

let check_err expected what f =
  Alcotest.(check (option string)) what (Some expected) (err_class f)

(* --- Err: the taxonomy itself --- *)

let test_err_exit_codes () =
  let cases =
    [ (Err.Invalid_input { what = "x"; why = "y" }, "invalid-input", 65);
      (Err.Budget_exceeded { budget = "b"; limit = 1; used = 2 },
       "budget-exceeded", 66);
      (Err.Deadline_exceeded { limit_s = 1.0; elapsed_s = 2.0 },
       "deadline-exceeded", 67);
      (Err.Cancelled { where = "w" }, "cancelled", 68);
      (Err.Worker_failure { shard = 3; attempts = 2; why = "boom" },
       "worker-failure", 69);
      (Err.Overloaded { queue = "q"; budget = 4; pending = 9 },
       "overloaded", 70) ]
  in
  List.iter
    (fun (e, cls, code) ->
      Alcotest.(check string) "class" cls (Err.class_name e);
      Alcotest.(check int) ("exit code for " ^ cls) code (Err.exit_code e);
      Alcotest.(check bool)
        ("to_string non-empty for " ^ cls)
        true
        (String.length (Err.to_string e) > 0))
    cases

let test_err_protect () =
  (match Err.protect (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "ok passes through" 42 v
  | Error _ -> Alcotest.fail "unexpected error");
  (match Err.protect (fun () -> raise (Err.invalid_input ~what:"t" "bad")) with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error e -> Alcotest.(check string) "typed caught" "invalid-input" (Err.class_name e));
  (* protect catches exactly Err.Error: programming errors still escape *)
  Alcotest.check_raises "raw exceptions escape" Exit (fun () ->
      ignore (Err.protect (fun () -> raise Exit)))

(* --- Guard: deadlines and cancellation --- *)

let test_guard_invalid_deadline () =
  check_err "invalid-input" "negative deadline" (fun () ->
      Guard.create ~deadline_s:(-1.0) ());
  check_err "invalid-input" "nan deadline" (fun () ->
      Guard.create ~deadline_s:Float.nan ())

let test_guard_deadline_trips () =
  with_telemetry @@ fun () ->
  let g = Guard.create ~deadline_s:0.0 () in
  Alcotest.(check bool) "expired" true (Guard.expired g);
  check_err "deadline-exceeded" "check raises" (fun () -> Guard.check g);
  Alcotest.(check bool)
    "trip counted" true
    (Telemetry.count (Telemetry.counter "guard.deadline_trips") >= 1);
  (* unlimited never trips *)
  Guard.check Guard.unlimited;
  Alcotest.(check bool) "unlimited not expired" false (Guard.expired Guard.unlimited)

let test_guard_cancellation () =
  with_telemetry @@ fun () ->
  let tok = Guard.token ~name:"test" () in
  let g = Guard.create ~token:tok () in
  Guard.check g;
  Guard.cancel tok;
  Alcotest.(check bool) "token observed" true (Guard.is_cancelled tok);
  check_err "cancelled" "check raises" (fun () -> Guard.check g);
  Alcotest.(check bool)
    "trip counted" true
    (Telemetry.count (Telemetry.counter "guard.cancel_trips") >= 1)

let test_guard_run () =
  (match Guard.run Guard.unlimited (fun _ -> 7) with
  | Ok v -> Alcotest.(check int) "ok" 7 v
  | Error _ -> Alcotest.fail "unexpected error");
  match Guard.run (Guard.create ~deadline_s:0.0 ()) (fun g -> Guard.check g) with
  | Ok () -> Alcotest.fail "expected deadline error"
  | Error e ->
      Alcotest.(check string) "deadline as result" "deadline-exceeded"
        (Err.class_name e)

(* --- Faultinject: the harness itself --- *)

let test_faultinject_validation () =
  check_err "invalid-input" "rate > 1" (fun () ->
      Faultinject.configure ~rate:1.5 [ Faultinject.Gate_eval ]);
  check_err "invalid-input" "rate < 0" (fun () ->
      Faultinject.configure ~rate:(-0.1) [ Faultinject.Gate_eval ])

let test_faultinject_rates () =
  Faultinject.with_faults ~rate:0.0 [ Faultinject.Gate_eval ] (fun () ->
      for _ = 1 to 1000 do
        Alcotest.(check bool) "rate 0 never fires" false
          (Faultinject.fire Faultinject.Gate_eval)
      done);
  Faultinject.with_faults ~rate:1.0 [ Faultinject.Gate_eval ] (fun () ->
      for _ = 1 to 100 do
        Alcotest.(check bool) "rate 1 always fires" true
          (Faultinject.fire Faultinject.Gate_eval)
      done;
      Alcotest.(check int) "all firings counted" 100
        (Faultinject.fired Faultinject.Gate_eval);
      (* unarmed points are unaffected *)
      Alcotest.(check bool) "unarmed point silent" false
        (Faultinject.fire Faultinject.Domain_kill))

let test_faultinject_determinism () =
  let run () =
    Faultinject.with_faults ~seed:1 ~rate:0.3 [ Faultinject.Trace_sample ]
      (fun () ->
        for _ = 1 to 1000 do
          ignore (Faultinject.fire Faultinject.Trace_sample)
        done;
        Faultinject.fired Faultinject.Trace_sample)
  in
  let c1 = run () and c2 = run () in
  Alcotest.(check int) "same seed, same firing count" c1 c2;
  Alcotest.(check bool) "rate 0.3 fires roughly 300/1000" true
    (c1 > 200 && c1 < 400)

let test_faultinject_disarm () =
  Alcotest.(check bool) "disabled at start" false (Faultinject.enabled ());
  (try
     Faultinject.with_faults ~rate:1.0 [ Faultinject.Bdd_blowup ] (fun () ->
         Alcotest.(check bool) "armed inside" true
           (Faultinject.armed Faultinject.Bdd_blowup);
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "disarmed after exception" false (Faultinject.enabled ())

(* --- Parsim: containment, retries, degradation --- *)

(* [n] compiled Monte Carlo units of a small adder: the stop rule fires on
   the unit count alone, so a run's unit means are comparable bit for bit *)
let mc_units ?max_retries n =
  Hlp_sim.Parsim.monte_carlo_units ?max_retries ~engine:Hlp_sim.Engine.Compiled
    (Hlp_logic.Generators.adder_circuit 4) ~batch:4 ~seed:7
    ~stop:(fun ~means ~cycles:_ -> Array.length means >= n)

let unit_bits (r : Hlp_sim.Parsim.mc) =
  Array.map Int64.bits_of_float r.Hlp_sim.Parsim.unit_means

let test_mc_units_validation () =
  check_err "invalid-input" "negative retries" (fun () ->
      mc_units ~max_retries:(-1) 4)

let test_parsim_retry_recovers () =
  (* transient faults: each retry draws a fresh fault decision, so at a
     moderate rate the retried units succeed and the run completes with
     the exact unit means a clean run produces *)
  with_telemetry @@ fun () ->
  let clean = unit_bits (mc_units 40) in
  let r =
    Faultinject.with_faults ~seed:(5 + seed_offset) ~rate:0.2
      [ Faultinject.Domain_kill ]
      (fun () -> mc_units ~max_retries:8 40)
  in
  Alcotest.(check (array int64)) "unit means bit-identical despite faults" clean
    (unit_bits r);
  Alcotest.(check bool)
    "failures counted" true
    (Telemetry.count (Telemetry.counter "parsim.worker_failures") >= 1);
  Alcotest.(check bool)
    "retries counted" true
    (Telemetry.count (Telemetry.counter "parsim.shard_retries") >= 1)

let test_parsim_persistent_failure () =
  (* a unit that keeps failing exhausts its retries and surfaces as the
     typed worker failure naming the unit *)
  match
    Faultinject.with_faults ~rate:1.0 [ Faultinject.Domain_kill ] (fun () ->
        mc_units ~max_retries:1 8)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Err.Error (Err.Worker_failure { shard; attempts; why }) ->
      Alcotest.(check int) "failing unit named" 0 shard;
      Alcotest.(check int) "attempts = max_retries + 1" 2 attempts;
      Alcotest.(check bool) "original exception kept" true
        (String.length why > 0)

let adder_trace ~width ~n seed =
  let net = Hlp_logic.Generators.adder_circuit width in
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let rng = Prng.create seed in
  let trace = Hlp_sim.Streams.uniform rng ~width:nin ~n in
  (net, fun i -> Array.init nin (fun b -> Bits.bit trace.(i) b))

let test_replay_guarded_degrades () =
  (* gate-eval faults at rate 1.0 kill every engine's simulation; the chain
     must walk Compiled -> Bitparallel -> Scalar and surface a typed error,
     not an injected Failure *)
  with_telemetry @@ fun () ->
  let net, vector = adder_trace ~width:4 ~n:100 11 in
  (match
     Faultinject.with_faults ~rate:1.0 [ Faultinject.Gate_eval ] (fun () ->
         Hlp_sim.Parsim.replay_guarded ~engine:Hlp_sim.Engine.Compiled net
           ~vector ~n:100)
   with
  | Ok _ -> Alcotest.fail "all engines were killed; expected an error"
  | Error e ->
      Alcotest.(check string) "typed worker failure" "worker-failure"
        (Err.class_name e));
  Alcotest.(check int)
    "two degradation hops counted" 2
    (Telemetry.count (Telemetry.counter "parsim.engine_fallbacks"))

let test_replay_guarded_propagates_guard_trips () =
  (* a deadline must never be degraded past: the chain stops immediately *)
  let net, vector = adder_trace ~width:4 ~n:50 17 in
  match
    Hlp_sim.Parsim.replay_guarded
      ~guard:(Guard.create ~deadline_s:0.0 ())
      ~engine:Hlp_sim.Engine.Compiled net ~vector ~n:50
  with
  | Ok _ -> Alcotest.fail "expected deadline error"
  | Error e ->
      Alcotest.(check string) "deadline propagates" "deadline-exceeded"
        (Err.class_name e)

let test_replay_rejects_wrong_length_vectors () =
  (* a vector whose length is not the netlist's input count is the
     caller's error on every engine: replay raises the typed
     Invalid_input naming the first bad cycle, and the guarded replay
     returns it at once, without degrading to another engine *)
  let net, vector = adder_trace ~width:4 ~n:100 23 in
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let cases =
    [ ("every vector short", nin - 1, (fun _ -> true), 0);
      ("every vector long", nin + 3, (fun _ -> true), 0);
      ("one long vector at cycle 70", nin + 3, (fun i -> i = 70), 70) ]
  in
  List.iter
    (fun (label, len, bad, first) ->
      let vector i = if bad i then Array.make len true else vector i in
      List.iter
        (fun engine ->
          let at = label ^ ", " ^ Hlp_sim.Engine.to_string engine in
          (match Hlp_sim.Parsim.replay ~engine net ~vector ~n:100 with
          | _ -> Alcotest.failf "%s: expected Invalid_input" at
          | exception Err.Error (Err.Invalid_input { why; _ }) ->
              Alcotest.(check bool)
                (at ^ ": names cycle " ^ string_of_int first)
                true
                (String.starts_with
                   ~prefix:(Printf.sprintf "cycle %d:" first)
                   why));
          with_telemetry @@ fun () ->
          (match Hlp_sim.Parsim.replay_guarded ~engine net ~vector ~n:100 with
          | Ok _ -> Alcotest.failf "%s: expected an error" at
          | Error e ->
              Alcotest.(check string) (at ^ ": typed") "invalid-input"
                (Err.class_name e));
          Alcotest.(check int) (at ^ ": no fallback") 0
            (Telemetry.count (Telemetry.counter "parsim.engine_fallbacks")))
        Hlp_sim.Engine.[ Scalar; Bitparallel; Compiled ])
    cases

(* --- Probprop: symbolic exactness, budgets, the guarded chain --- *)

let test_symbolic_exact_on_reconvergence () =
  (* comparator has reconvergent fanout: propagate's independence
     assumption is biased there, the BDD path is exact. Verify symbolic
     probabilities against brute-force truth-table enumeration. *)
  let net = Hlp_logic.Generators.comparator_circuit 3 in
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let stats = Hlp_power.Probprop.symbolic net in
  let sim = Hlp_sim.Funcsim.create net in
  let count = Array.make (Array.length stats.Hlp_power.Probprop.prob) 0 in
  let total = 1 lsl nin in
  for v = 0 to total - 1 do
    Hlp_sim.Funcsim.step sim (Array.init nin (fun b -> Bits.bit v b));
    Array.iteri
      (fun node _ ->
        if Hlp_sim.Funcsim.value sim node then count.(node) <- count.(node) + 1)
      count
  done;
  Array.iteri
    (fun node p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "node %d probability" node)
        (float_of_int count.(node) /. float_of_int total)
        p)
    stats.Hlp_power.Probprop.prob

let test_symbolic_budget_trips () =
  let net = Hlp_logic.Generators.multiplier_circuit 6 in
  check_err "budget-exceeded" "tiny node limit trips" (fun () ->
      Hlp_power.Probprop.symbolic ~node_limit:20 net)

(* --- Probprop: the symbolic memo answers as a fresh build would --- *)

let clear_memo () =
  ignore (Hlp_logic.Netcache.clear Hlp_power.Probprop.symbolic_memo)

(* the nodes an unbudgeted build creates, counted on a manager of our own:
   the one number that decides every node budget *)
let bdd_nodes net =
  let m = Hlp_bdd.Bdd.manager () in
  ignore
    (Hlp_bdd.Bdd.of_netlist_all ~order:(Hlp_bdd.Bdd.first_use_order net) m net);
  Hlp_bdd.Bdd.node_count m

let stats_bits (s : Hlp_power.Probprop.node_stats) =
  Array.map Int64.bits_of_float
    (Array.append s.Hlp_power.Probprop.prob s.Hlp_power.Probprop.activity)

let trip_of f =
  match f () with
  | _ -> None
  | exception Err.Error (Err.Budget_exceeded { budget; limit; used }) ->
      Some (budget, limit, used)

let symbolic_builds () =
  Telemetry.count (Telemetry.counter "probprop.symbolic_builds")

let test_symbolic_memo_threshold () =
  with_telemetry @@ fun () ->
  List.iter
    (fun (name, net) ->
      let n = bdd_nodes net in
      let sym limit () = Hlp_power.Probprop.symbolic ~node_limit:limit net in
      let fits what limit want =
        Alcotest.(check (array int64)) (name ^ ": " ^ what) want
          (stats_bits (sym limit ()))
      in
      let trips what =
        Alcotest.(check (option (triple string int int)))
          (name ^ ": " ^ what)
          (Some ("bdd.nodes", n - 1, n - 1))
          (trip_of (sym (n - 1)))
      in
      let builds what k0 want =
        Alcotest.(check int) (name ^ ": " ^ what) want (symbolic_builds () - k0)
      in
      clear_memo ();
      let fresh = stats_bits (Hlp_power.Probprop.symbolic net) in
      (* fit first: the trip below the fit is answered from it *)
      clear_memo ();
      let k0 = symbolic_builds () in
      fits "fits at N" n fresh;
      trips "trips at N-1 after the fit";
      builds "one build decides both" k0 1;
      (* trip first: it does not decide N, so N builds and fits *)
      clear_memo ();
      let k0 = symbolic_builds () in
      trips "trips at N-1";
      fits "fits at N after the trip" n fresh;
      trips "trip answered again";
      fits "fit answered again" n fresh;
      builds "two builds, then answers" k0 2)
    [ ("parity 8", Hlp_logic.Generators.parity_circuit 8);
      ("adder 8", Hlp_logic.Generators.adder_circuit 8);
      ("multiplier 4", Hlp_logic.Generators.multiplier_circuit 4);
      ("comparator 4", Hlp_logic.Generators.comparator_circuit 4) ]

let test_symbolic_memo_ignores_injected_trips () =
  let net = Hlp_logic.Generators.adder_circuit 8 in
  let limit = Hlp_power.Probprop.default_node_limit in
  let sym () = Hlp_power.Probprop.symbolic ~node_limit:limit net in
  clear_memo ();
  let fresh = stats_bits (sym ()) in
  clear_memo ();
  (match
     Faultinject.with_faults ~rate:1.0 [ Faultinject.Bdd_blowup ] (fun () ->
         trip_of sym)
   with
  | Some ("bdd.nodes(injected)", l, _) ->
      Alcotest.(check int) "injected at the call's limit" limit l
  | _ -> Alcotest.fail "expected an injected budget trip");
  Alcotest.(check (array int64)) "a clean call at the same limit fits" fresh
    (stats_bits (sym ()))

let test_symbolic_memo_builds_doomed_once () =
  with_telemetry @@ fun () ->
  let net = Hlp_logic.Generators.multiplier_circuit 8 in
  let doomed limit () = Hlp_power.Probprop.symbolic ~node_limit:limit net in
  clear_memo ();
  let k0 = symbolic_builds () in
  for _ = 1 to 3 do
    check_err "budget-exceeded" "doomed attempt trips" (doomed 64)
  done;
  Alcotest.(check int) "three doomed attempts, one build" 1
    (symbolic_builds () - k0);
  check_err "budget-exceeded" "smaller budget trips" (doomed 10);
  Alcotest.(check int) "a smaller budget is answered from the trip" 1
    (symbolic_builds () - k0);
  check_err "budget-exceeded" "larger budget trips" (doomed 128);
  Alcotest.(check int) "a larger budget builds again" 2
    (symbolic_builds () - k0);
  Alcotest.(check int) "every attempt counted as a run" 5
    (Telemetry.count (Telemetry.counter "probprop.symbolic_runs"))

let test_estimate_guarded_symbolic_path () =
  with_telemetry @@ fun () ->
  let net = Hlp_logic.Generators.adder_circuit 4 in
  match Hlp_power.Probprop.estimate_guarded net with
  | Error e -> Alcotest.fail ("unexpected error: " ^ Err.to_string e)
  | Ok g ->
      Alcotest.(check bool) "symbolic estimator used" true
        (g.Hlp_power.Probprop.estimator = Hlp_power.Probprop.Symbolic);
      Alcotest.(check bool) "no fallback" false g.Hlp_power.Probprop.symbolic_fallback;
      Alcotest.(check bool) "positive capacitance" true
        (g.Hlp_power.Probprop.capacitance > 0.0);
      Alcotest.(check int)
        "symbolic run counted" 1
        (Telemetry.count (Telemetry.counter "probprop.symbolic_runs"))

let test_estimate_guarded_falls_back_to_sampling () =
  with_telemetry @@ fun () ->
  let net = Hlp_logic.Generators.adder_circuit 4 in
  (* the exact answer, for the CI-consistency assertion *)
  let exact =
    let stats = Hlp_power.Probprop.symbolic net in
    Hlp_power.Probprop.estimate_capacitance net stats
  in
  match Hlp_power.Probprop.estimate_guarded ~node_limit:10 ~seed:7 net with
  | Error e -> Alcotest.fail ("unexpected error: " ^ Err.to_string e)
  | Ok g -> (
      Alcotest.(check bool) "fell back" true g.Hlp_power.Probprop.symbolic_fallback;
      Alcotest.(check bool)
        "fallback counted" true
        (Telemetry.count (Telemetry.counter "probprop.symbolic_fallbacks") >= 1);
      match g.Hlp_power.Probprop.estimator with
      | Hlp_power.Probprop.Symbolic -> Alcotest.fail "should have sampled"
      | Hlp_power.Probprop.Monte_carlo mc ->
          (* the sampled estimate must be CI-consistent with the exact
             answer: within 4 half-widths (the t interval is 95%) *)
          Alcotest.(check bool)
            (Printf.sprintf "estimate %.2f within CI of exact %.2f (+/- %.2f)"
               mc.Hlp_power.Probprop.estimate exact
               mc.Hlp_power.Probprop.half_interval)
            true
            (Float.abs (mc.Hlp_power.Probprop.estimate -. exact)
            <= 4.0 *. mc.Hlp_power.Probprop.half_interval))

(* a cycle budget under one Monte Carlo unit still runs two units, so the
   answer has an interval and comes from the requested engine *)
let test_estimate_guarded_sub_unit_budget () =
  let net = Hlp_logic.Generators.adder_circuit 4 in
  let unit_cycles = 30 * Hlp_sim.Bitsim.lanes in
  let run max_cycles =
    match
      Hlp_power.Probprop.estimate_guarded ~node_limit:10 ~seed:7
        ~engine:Hlp_sim.Engine.Compiled ~max_cycles net
    with
    | Ok g -> g
    | Error e -> Alcotest.fail ("unexpected error: " ^ Err.to_string e)
  in
  let two_units = run (2 * unit_cycles) in
  List.iter
    (fun max_cycles ->
      let g = run max_cycles in
      Alcotest.(check bool)
        "answered on compiled" true
        (g.Hlp_power.Probprop.engine_used = Some Hlp_sim.Engine.Compiled);
      Alcotest.(check int) "no fallback" 0 g.Hlp_power.Probprop.engine_fallbacks;
      match g.Hlp_power.Probprop.estimator with
      | Hlp_power.Probprop.Symbolic -> Alcotest.fail "should have sampled"
      | Hlp_power.Probprop.Monte_carlo mc ->
          Alcotest.(check bool)
            "finite half-interval" true
            (Float.is_finite mc.Hlp_power.Probprop.half_interval);
          Alcotest.(check int) "two units" 2 mc.Hlp_power.Probprop.batches;
          Alcotest.(check bool)
            "same bits as a two-unit budget" true
            (Int64.bits_of_float g.Hlp_power.Probprop.capacitance
            = Int64.bits_of_float two_units.Hlp_power.Probprop.capacitance))
    [ 1; unit_cycles ]

let test_estimate_guarded_deadline () =
  let net = Hlp_logic.Generators.multiplier_circuit 8 in
  match
    Hlp_power.Probprop.estimate_guarded
      ~guard:(Guard.create ~deadline_s:0.0 ())
      net
  with
  | Ok _ -> Alcotest.fail "expected deadline error"
  | Error e ->
      Alcotest.(check string) "deadline surfaces" "deadline-exceeded"
        (Err.class_name e)

let test_monte_carlo_validation () =
  let net = Hlp_logic.Generators.adder_circuit 4 in
  check_err "invalid-input" "batch < 2" (fun () ->
      Hlp_power.Probprop.monte_carlo ~batch:1 net)

(* --- Sampling: input validation and poisoned samples --- *)

let test_sampling_validation () =
  check_err "invalid-input" "length mismatch" (fun () ->
      Hlp_power.Sampling.of_arrays ~macro_values:[| 1.0 |]
        ~gate_values:[| 1.0; 2.0 |]);
  check_err "invalid-input" "empty" (fun () ->
      Hlp_power.Sampling.of_arrays ~macro_values:[||] ~gate_values:[||]);
  check_err "invalid-input" "poisoned value" (fun () ->
      Hlp_power.Sampling.of_arrays
        ~macro_values:[| 1.0; Float.nan |]
        ~gate_values:[| 1.0; 2.0 |]);
  (match
     Hlp_power.Sampling.of_arrays_checked ~macro_values:[| 1.0 |]
       ~gate_values:[| 1.0 |]
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "valid arrays rejected");
  match
    Hlp_power.Sampling.of_arrays_checked ~macro_values:[||] ~gate_values:[||]
  with
  | Ok _ -> Alcotest.fail "empty accepted"
  | Error e ->
      Alcotest.(check string) "checked variant" "invalid-input" (Err.class_name e)

let sampling_dut n =
  { Hlp_power.Macromodel.net = Hlp_logic.Generators.adder_circuit n;
    widths = [ n; n ] }

let sampling_model dut =
  let obs =
    List.map (Hlp_power.Macromodel.observe dut)
      (Hlp_power.Macromodel.training_streams ~n:64 dut)
  in
  Hlp_power.Macromodel.fit Hlp_power.Macromodel.Pfa dut obs

let test_sampling_prepare_validation () =
  let dut = sampling_dut 4 in
  let model = sampling_model dut in
  check_err "invalid-input" "no traces" (fun () ->
      Hlp_power.Sampling.prepare model dut []);
  check_err "invalid-input" "unequal streams" (fun () ->
      Hlp_power.Sampling.prepare model dut [ [| 1; 2; 3 |]; [| 1; 2 |] ]);
  check_err "invalid-input" "one cycle" (fun () ->
      Hlp_power.Sampling.prepare model dut [ [| 1 |]; [| 2 |] ]);
  check_err "invalid-input" "stream count mismatch" (fun () ->
      Hlp_power.Sampling.prepare model dut [ [| 1; 2; 3 |] ])

let test_sampling_poisoned_trace () =
  (* a poisoned macro-model evaluation must surface at assembly as a typed
     error, not as a NaN estimate downstream *)
  let dut = sampling_dut 4 in
  let model = sampling_model dut in
  let rng = Prng.create 23 in
  let traces =
    [ Array.init 100 (fun _ -> Prng.int rng 16);
      Array.init 100 (fun _ -> Prng.int rng 16) ]
  in
  check_err "invalid-input" "poison detected" (fun () ->
      Faultinject.with_faults ~rate:0.05 [ Faultinject.Trace_sample ] (fun () ->
          Hlp_power.Sampling.prepare model dut traces))

(* --- the end-to-end property, randomized over fault scenarios --- *)

let qcheck_pipeline_never_crashes =
  (* Under any injected fault mix, [estimate_guarded] returns a typed error
     or the answer the same request gives without faults, bit for bit:
     faults cost retries and engine hops, never bits. When the BDD stage
     ran that is the symbolic answer; when an injected blowup tripped it,
     the Monte Carlo answer of the request with the symbolic stage
     skipped, on the engine that answered (the unit engines share bits; a
     scalar hop draws its own stream). A tolerance band around the exact
     value would instead test the sampler's coverage, which misses by
     design for a few seeds with or without faults. *)
  let net = Hlp_logic.Generators.adder_circuit 4 in
  let request ?try_symbolic ~engine seed =
    Hlp_power.Probprop.estimate_guarded ?try_symbolic ~seed ~node_limit:5000
      ~engine ~max_retries:3 net
  in
  QCheck.Test.make ~name:"faulted pipeline: typed error or consistent estimate"
    ~count:25
    QCheck.(pair (int_bound 10_000) (int_bound 7))
    (fun (seed, mask) ->
      let points =
        List.filteri
          (fun i _ -> mask land (1 lsl i) <> 0)
          [ Faultinject.Gate_eval; Faultinject.Domain_kill;
            Faultinject.Bdd_blowup ]
      in
      (* an empty symbolic memo, so an injected trip can reach the BDD *)
      ignore (Hlp_logic.Netcache.clear Hlp_power.Probprop.symbolic_memo);
      let result =
        Faultinject.with_faults ~seed:(seed + seed_offset) ~rate:0.1 points
          (fun () -> request ~engine:Hlp_sim.Engine.Compiled seed)
      in
      let bits = Int64.bits_of_float in
      match result with
      | Error _ -> true (* typed error: acceptable outcome *)
      | Ok g -> (
          match g.Hlp_power.Probprop.estimator with
          | Hlp_power.Probprop.Symbolic -> (
              (* a fresh build, not the fact the faulted run recorded *)
              ignore
                (Hlp_logic.Netcache.clear Hlp_power.Probprop.symbolic_memo);
              match request ~engine:Hlp_sim.Engine.Compiled seed with
              | Ok { Hlp_power.Probprop.estimator = Symbolic; capacitance; _ }
                ->
                  bits capacitance = bits g.Hlp_power.Probprop.capacitance
              | _ -> false)
          | Hlp_power.Probprop.Monte_carlo mc -> (
              let engine = Option.get g.Hlp_power.Probprop.engine_used in
              match request ~try_symbolic:false ~engine seed with
              | Ok { Hlp_power.Probprop.estimator = Monte_carlo c; _ } ->
                  bits c.Hlp_power.Probprop.estimate
                  = bits mc.Hlp_power.Probprop.estimate
                  && bits c.half_interval = bits mc.half_interval
                  && c.batches = mc.batches
                  && c.cycles_used = mc.cycles_used
              | _ -> false)))

let qcheck_units_deterministic_under_faults =
  (* a unit's mean depends only on its index, so a clean 30-unit run's
     prefix is the expected answer for any shorter run *)
  let clean = lazy (unit_bits (mc_units 30)) in
  QCheck.Test.make
    ~name:"Parsim.map under domain kills: correct values or typed error"
    ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 1 30))
    (fun (seed, n) ->
      match
        Faultinject.with_faults ~seed:(seed + seed_offset) ~rate:0.3
          [ Faultinject.Domain_kill ]
          (fun () -> mc_units ~max_retries:4 n)
      with
      | r -> unit_bits r = Array.sub (Lazy.force clean) 0 n
      | exception Err.Error (Err.Worker_failure _) -> true)

let suite =
  [
    Alcotest.test_case "err exit codes" `Quick test_err_exit_codes;
    Alcotest.test_case "err protect" `Quick test_err_protect;
    Alcotest.test_case "guard invalid deadline" `Quick test_guard_invalid_deadline;
    Alcotest.test_case "guard deadline trips" `Quick test_guard_deadline_trips;
    Alcotest.test_case "guard cancellation" `Quick test_guard_cancellation;
    Alcotest.test_case "guard run" `Quick test_guard_run;
    Alcotest.test_case "faultinject validation" `Quick test_faultinject_validation;
    Alcotest.test_case "faultinject rates" `Quick test_faultinject_rates;
    Alcotest.test_case "faultinject determinism" `Quick test_faultinject_determinism;
    Alcotest.test_case "faultinject disarm" `Quick test_faultinject_disarm;
    Alcotest.test_case "parsim map validation" `Quick test_mc_units_validation;
    Alcotest.test_case "parsim retry recovers" `Quick test_parsim_retry_recovers;
    Alcotest.test_case "parsim persistent failure" `Quick test_parsim_persistent_failure;
    Alcotest.test_case "replay_guarded degrades" `Quick test_replay_guarded_degrades;
    Alcotest.test_case "replay_guarded propagates guard trips" `Quick
      test_replay_guarded_propagates_guard_trips;
    Alcotest.test_case "replay rejects wrong-length vectors on every engine"
      `Quick test_replay_rejects_wrong_length_vectors;
    Alcotest.test_case "symbolic exact on reconvergence" `Quick
      test_symbolic_exact_on_reconvergence;
    Alcotest.test_case "symbolic budget trips" `Quick test_symbolic_budget_trips;
    Alcotest.test_case "symbolic memo: fits at N, trips at N-1, either order"
      `Quick test_symbolic_memo_threshold;
    Alcotest.test_case "symbolic memo: injected trips are not recorded" `Quick
      test_symbolic_memo_ignores_injected_trips;
    Alcotest.test_case "symbolic memo: a doomed budget builds once" `Quick
      test_symbolic_memo_builds_doomed_once;
    Alcotest.test_case "estimate_guarded symbolic path" `Quick
      test_estimate_guarded_symbolic_path;
    Alcotest.test_case "estimate_guarded falls back to sampling" `Quick
      test_estimate_guarded_falls_back_to_sampling;
    Alcotest.test_case "estimate_guarded deadline" `Quick test_estimate_guarded_deadline;
    Alcotest.test_case "estimate_guarded: a budget under one unit runs two"
      `Quick test_estimate_guarded_sub_unit_budget;
    Alcotest.test_case "monte carlo validation" `Quick test_monte_carlo_validation;
    Alcotest.test_case "sampling validation" `Quick test_sampling_validation;
    Alcotest.test_case "sampling prepare validation" `Quick
      test_sampling_prepare_validation;
    Alcotest.test_case "sampling poisoned trace" `Quick test_sampling_poisoned_trace;
    QCheck_alcotest.to_alcotest qcheck_pipeline_never_crashes;
    QCheck_alcotest.to_alcotest qcheck_units_deterministic_under_faults;
  ]
