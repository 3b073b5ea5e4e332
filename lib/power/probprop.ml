open Hlp_logic

type node_stats = {
  prob : float array;
  activity : float array;
}

(* Under independence, a gate's output probability is a polynomial in its
   input probabilities; the output activity is approximated by the total
   derivative (Najm's transition density):
     D(y) = sum_i |dP(y)/dP(x_i)| * D(x_i)
   where the Boolean difference probability is evaluated numerically by
   flipping one input's probability between 0 and 1. *)
let gate_prob kind pins =
  let conj () = Array.fold_left (fun acc p -> acc *. p) 1.0 pins in
  let disj () = 1.0 -. Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 pins in
  match kind with
  | Gate.Input -> invalid_arg "gate_prob: input"
  | Gate.Const b -> if b then 1.0 else 0.0
  | Gate.Buf | Gate.Dff -> pins.(0)
  | Gate.Not -> 1.0 -. pins.(0)
  | Gate.And _ -> conj ()
  | Gate.Or _ -> disj ()
  | Gate.Nand _ -> 1.0 -. conj ()
  | Gate.Nor _ -> 1.0 -. disj ()
  | Gate.Xor -> (pins.(0) *. (1.0 -. pins.(1))) +. (pins.(1) *. (1.0 -. pins.(0)))
  | Gate.Xnor ->
      1.0 -. ((pins.(0) *. (1.0 -. pins.(1))) +. (pins.(1) *. (1.0 -. pins.(0))))
  | Gate.Mux -> ((1.0 -. pins.(0)) *. pins.(1)) +. (pins.(0) *. pins.(2))

let require_combinational ~what net =
  if Netlist.num_dffs net > 0 then
    raise
      (Hlp_util.Err.invalid_input ~what
         "combinational netlists only (flip-flop state breaks the closed form)")

let propagate ?(input_prob = fun _ -> 0.5) ?(input_activity = fun _ -> 0.5) net =
  require_combinational ~what:"Probprop.propagate: netlist" net;
  let n = Netlist.num_nodes net in
  let prob = Array.make n 0.0 and activity = Array.make n 0.0 in
  Array.iteri
    (fun k w ->
      prob.(w) <- input_prob k;
      activity.(w) <- input_activity k)
    net.Netlist.inputs;
  Array.iteri
    (fun i (node : Netlist.node) ->
      match node.Netlist.kind with
      | Gate.Input -> ()
      | Gate.Const b ->
          prob.(i) <- (if b then 1.0 else 0.0);
          activity.(i) <- 0.0
      | kind ->
          let pins = Array.map (fun w -> prob.(w)) node.Netlist.fanin in
          prob.(i) <- gate_prob kind pins;
          let acc = ref 0.0 in
          Array.iteri
            (fun k w ->
              let hi = Array.copy pins and lo = Array.copy pins in
              hi.(k) <- 1.0;
              lo.(k) <- 0.0;
              let sensitivity = abs_float (gate_prob kind hi -. gate_prob kind lo) in
              acc := !acc +. (sensitivity *. activity.(w)))
            node.Netlist.fanin;
          activity.(i) <- min 1.0 !acc)
    net.Netlist.nodes;
  { prob; activity }

let estimate_capacitance net stats =
  let caps = Netlist.node_capacitance net in
  let total = ref 0.0 in
  Array.iteri (fun i c -> total := !total +. (c *. stats.activity.(i))) caps;
  !total

(* --- exact symbolic estimation (BDD signal probabilities) --- *)

let tel_symbolic_runs = Hlp_util.Telemetry.counter "probprop.symbolic_runs"
let tel_symbolic_builds = Hlp_util.Telemetry.counter "probprop.symbolic_builds"
let tel_symbolic_fallbacks = Hlp_util.Telemetry.counter "probprop.symbolic_fallbacks"

(* The memo (the interface says why one number per circuit decides every
   node budget). Facts only get stronger and every stored fact is true,
   so a race between domains costs a duplicate build, never a wrong
   answer. Builds are not single-flight: an attempt under a small budget
   must not wait for, or share, one under a large budget. *)
type fact = Fits of int * node_stats | Exceeds of int
type symbolic_fact = fact option Atomic.t

let symbolic_memo : symbolic_fact Netcache.t =
  Netcache.create ~capacity:64 ~name:"probprop.symbolic" ()

let rec learn cell fact =
  let old = Atomic.get cell in
  let stronger =
    match (old, fact) with
    | None, _ | Some (Exceeds _), Fits _ -> true
    | Some (Exceeds l), Exceeds l' -> l' > l
    | Some (Fits _), _ -> false
  in
  if stronger && not (Atomic.compare_and_set cell old (Some fact)) then
    learn cell fact

(* a fresh manager, so the same netlist makes the same node creations *)
let build ?node_limit net =
  let m = Hlp_bdd.Bdd.manager ?node_limit () in
  let order = Hlp_bdd.Bdd.first_use_order net in
  (* the budgeted part: global BDDs for every node (exponential worst case) *)
  let funcs = Hlp_bdd.Bdd.of_netlist_all ~order m net in
  let n = Netlist.num_nodes net in
  let prob = Array.make n 0.0 and activity = Array.make n 0.0 in
  Array.iteri
    (fun i f ->
      let pi = Hlp_bdd.Bdd.probability m ~p:(fun _ -> 0.5) f in
      prob.(i) <- pi;
      (* consecutive vectors independent: a node toggles iff its settled
         value differs between two independent draws *)
      activity.(i) <- 2.0 *. pi *. (1.0 -. pi))
    funcs;
  (Hlp_bdd.Bdd.node_count m, { prob; activity })

let symbolic ?node_limit net =
  require_combinational ~what:"Probprop.symbolic: netlist" net;
  (match node_limit with
  | Some l when l < 1 ->
      raise
        (Hlp_util.Err.invalid_input ~what:"Probprop.symbolic: node_limit"
           "must be positive")
  | _ -> ());
  Hlp_util.Telemetry.incr tel_symbolic_runs;
  Hlp_util.Trace.span
    ~args:(fun () ->
      [ ("gates", Hlp_util.Json.Int (Netlist.num_nodes net));
        ("node_limit",
         match node_limit with
         | Some l -> Hlp_util.Json.Int l
         | None -> Hlp_util.Json.Null) ])
    "probprop.symbolic"
  @@ fun () ->
  let cell =
    Netcache.find_or_compute symbolic_memo ~key:(Netlist.fingerprint net)
      (fun () -> Atomic.make None)
  in
  (* the typed error a build under [l] raises when it needs more *)
  let trip l =
    raise (Hlp_util.Err.budget_exceeded ~budget:"bdd.nodes" ~limit:l ~used:l)
  in
  match (Atomic.get cell, node_limit) with
  | Some (Fits (n, _)), Some l when n > l -> trip l
  | Some (Exceeds e), Some l when l <= e -> trip l
  | Some (Fits (_, stats)), _ -> stats
  | (None | Some (Exceeds _)), _ -> (
      Hlp_util.Telemetry.incr tel_symbolic_builds;
      match build ?node_limit net with
      | n, stats ->
          learn cell (Fits (n, stats));
          stats
      | exception
          (Hlp_util.Err.Error
             (Hlp_util.Err.Budget_exceeded { budget = "bdd.nodes"; limit; _ })
           as e) ->
          (* an injected trip ("bdd.nodes(injected)") proves nothing *)
          learn cell (Exceeds limit);
          raise e)

type monte_carlo = {
  estimate : float;
  half_interval : float;
  cycles_used : int;
  batches : int;
  batch_means : float array;
}

(* Convergence telemetry: one observation per stopping-rule evaluation, so
   recorded half-widths reproduce the whole convergence trajectory. *)
let tel_batches = Hlp_util.Telemetry.counter "probprop.batches"
let tel_mc_cycles = Hlp_util.Telemetry.counter "probprop.mc_cycles"
let tel_running_mean = Hlp_util.Telemetry.series "probprop.running_mean"
let tel_half_width = Hlp_util.Telemetry.series "probprop.ci_half_width"

(* 95% Student-t half-width of the mean of [means] (df = batches - 1).
   The seed implementation used the z = 1.96 normal interval here, which
   under-covers badly at the 3-5 batch counts the stopping rule sees
   (t_{2,0.975} = 4.303): runs stopped early with intervals that missed
   the long-run mean far more than 5% of the time. *)
let ci_half_width means =
  let lo, hi =
    Hlp_util.Stats.confidence_interval ~level:0.95
      ~df:(Array.length means - 1) means
  in
  (hi -. lo) /. 2.0

(* the Burch-et-al. stopping criterion, shared by all engines; the cycle
   budget stops a run only once two unit means give an interval *)
let ci_stop ~relative_precision ~max_cycles ~means ~cycles =
  if Array.length means >= 2 && Hlp_util.Telemetry.enabled () then begin
    Hlp_util.Telemetry.observe tel_running_mean (Hlp_util.Stats.mean means);
    Hlp_util.Telemetry.observe tel_half_width (ci_half_width means)
  end;
  (cycles >= max_cycles && Array.length means >= 2)
  || Array.length means >= 3
     &&
     let m = Hlp_util.Stats.mean means in
     let half = ci_half_width means in
     m > 0.0 && half /. m <= relative_precision

(* --- crash-safe checkpointing ---

   A checkpoint is a {!Hlp_util.Journal} of the Monte Carlo loop's exact
   state at batch/unit boundaries. Floats cross the journal as the hex of
   their IEEE-754 bits ([%Lx]), never as decimal text: float addition is
   non-associative and [%.17g] round-trips are not the accumulator, so
   anything less than bit transport would break the byte-identical-resume
   contract. The first record is a header binding the journal to the run
   parameters and the circuit fingerprint; a mismatch self-heals (truncate
   and start fresh, counted in ["probprop.ck_header_mismatches"]) rather
   than wedging a batch campaign after a parameter change. *)

type checkpoint = {
  ck_path : string;
  ck_sync_every : int;
  ck_resume : bool;
  ck_on_batch : (int -> unit) option;
}

let checkpoint ?(sync_every = 16) ?(resume = false) ?on_batch path =
  if sync_every < 1 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Probprop.checkpoint: sync_every"
         "must be >= 1");
  { ck_path = path;
    ck_sync_every = sync_every;
    ck_resume = resume;
    ck_on_batch = on_batch }

let tel_ck_records = Hlp_util.Telemetry.counter "probprop.ck_records"
let tel_ck_resumes = Hlp_util.Telemetry.counter "probprop.ck_resumes"
let tel_ck_torn = Hlp_util.Telemetry.counter "probprop.ck_torn_tails"

let tel_ck_mismatches =
  Hlp_util.Telemetry.counter "probprop.ck_header_mismatches"

let bits_hex f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* hex parses modulo 2^64, so all 64 bit patterns round-trip *)
let bits_of_hex s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let header_payload ~kind ~seed ~batch ~relative_precision ~max_cycles ~engine
    net =
  Hlp_util.Json.to_string ~compact:true
    (Hlp_util.Json.Obj
       [ ("v", Hlp_util.Json.Int 1);
         ("kind", Hlp_util.Json.Str kind);
         ("seed", Hlp_util.Json.Int seed);
         ("batch", Hlp_util.Json.Int batch);
         ("rp", Hlp_util.Json.Str (bits_hex relative_precision));
         ("max_cycles", Hlp_util.Json.Int max_cycles);
         ("engine", Hlp_util.Json.Str engine);
         ("net",
          Hlp_util.Json.Str (Printf.sprintf "%Lx" (Netlist.fingerprint net)))
       ])

type ck_writer = {
  ckw : checkpoint;
  j : Hlp_util.Journal.t;
  mutable n : int;  (* records appended through this writer *)
}

let ck_append w payload =
  Hlp_util.Journal.append w.j payload;
  w.n <- w.n + 1;
  Hlp_util.Telemetry.incr tel_ck_records;
  (* group commit: fsync every few records, and always at close *)
  if w.n mod w.ckw.ck_sync_every = 0 then Hlp_util.Journal.sync w.j

(* the on_batch hook exists so tests can kill the process at an exact
   checkpoint boundary; sync first so the record the hook announces is
   actually durable when the bullet arrives *)
let ck_notify w k =
  match w.ckw.ck_on_batch with
  | None -> ()
  | Some f ->
      Hlp_util.Journal.sync w.j;
      f k

let ck_heal ck ~header j =
  Hlp_util.Telemetry.incr tel_ck_mismatches;
  Hlp_util.Trace.instant "probprop.ck_self_heal";
  Hlp_util.Journal.close j;
  let j, _ = Hlp_util.Journal.open_ ~resume:false ck.ck_path in
  Hlp_util.Journal.append j header;
  j

(* open the journal, validate (or write) the header, and return the
   surviving body records when resuming *)
let ck_open ck ~header =
  if ck.ck_resume then begin
    let r = Hlp_util.Journal.recover ck.ck_path in
    if r.Hlp_util.Journal.torn_bytes > 0 then
      Hlp_util.Telemetry.incr tel_ck_torn
  end;
  let j, records = Hlp_util.Journal.open_ ~resume:ck.ck_resume ck.ck_path in
  match records with
  | h :: rest when String.equal h header -> (j, rest)
  | [] ->
      Hlp_util.Journal.append j header;
      (j, [])
  | _ -> (ck_heal ck ~header j, [])

(* --- scalar-engine checkpoint records ---

   One record per batch:
   {"k":last batch index,"means":[bits...],"prng":bits,"cap":bits,
    "cycles":n,"vec":"0101..."} — the batch means since the previous
   record (one; older journals that batched several still resume) plus
   the complete simulator state at the batch boundary: PRNG state, the
   exact switched-capacitance accumulator, and the last input vector
   (node values are a pure function of it on a combinational net, so
   replaying one uncounted step re-primes the simulator). *)

type scalar_resume = {
  sr_k : int;  (* batches completed *)
  sr_means_rev : float list;  (* newest-first, like the live loop *)
  sr_prng : int64;
  sr_cap : float;
  sr_cycles : int;
  sr_vec : bool array;
}

let scalar_record ~k ~means ~prng ~cap ~cycles ~vec =
  Hlp_util.Json.to_string ~compact:true
    (Hlp_util.Json.Obj
       [ ("k", Hlp_util.Json.Int k);
         ("means",
          Hlp_util.Json.List
            (List.map (fun m -> Hlp_util.Json.Str (bits_hex m)) means));
         ("prng", Hlp_util.Json.Str (Printf.sprintf "%Lx" prng));
         ("cap", Hlp_util.Json.Str (bits_hex cap));
         ("cycles", Hlp_util.Json.Int cycles);
         ("vec",
          Hlp_util.Json.Str
            (String.init (Array.length vec) (fun i ->
                 if vec.(i) then '1' else '0'))) ])

let parse_scalar_record payload =
  match Hlp_util.Json.parse payload with
  | Error _ -> None
  | Ok v -> (
      let open Hlp_util.Json in
      try
        let get f name = Option.get (f (Option.get (member name v))) in
        let means =
          List.map
            (fun m -> bits_of_hex (Option.get (to_str_opt m)))
            (get to_list_opt "means")
        in
        let vs = get to_str_opt "vec" in
        Some
          { sr_k = get to_int_opt "k";
            sr_means_rev = List.rev means;
            sr_prng = Int64.of_string ("0x" ^ get to_str_opt "prng");
            sr_cap = bits_of_hex (get to_str_opt "cap");
            sr_cycles = get to_int_opt "cycles";
            sr_vec = Array.init (String.length vs) (fun i -> vs.[i] = '1') }
      with _ -> None)

(* fold the body records into the state at the last one; [None] on any
   malformed or inconsistent record (the caller self-heals) *)
let parse_scalar_records ~nin records =
  let rec go acc = function
    | [] -> acc
    | r :: rest -> (
        match (parse_scalar_record r, acc) with
        | None, _ -> None
        | Some sr, prev ->
            let means_rev =
              match prev with
              | None -> sr.sr_means_rev
              | Some p -> sr.sr_means_rev @ p.sr_means_rev
            in
            if
              List.length means_rev <> sr.sr_k
              || Array.length sr.sr_vec <> nin
            then None
            else go (Some { sr with sr_means_rev = means_rev }) rest)
  in
  go None records

(* --- unit-engine checkpoint records ---

   One record per freshly computed unit: {"u":index,"mean":bits}. A
   unit's mean is a pure function of (seed, unit index), so no PRNG or
   simulator state travels; resume means are the longest contiguous
   index prefix, after dropping duplicates (a crash mid-round re-runs
   and re-journals that round). *)

let unit_record ~u ~mean =
  Hlp_util.Json.to_string ~compact:true
    (Hlp_util.Json.Obj
       [ ("u", Hlp_util.Json.Int u);
         ("mean", Hlp_util.Json.Str (bits_hex mean)) ])

let parse_unit_record payload =
  match Hlp_util.Json.parse payload with
  | Error _ -> None
  | Ok v -> (
      let open Hlp_util.Json in
      try
        Some
          ( Option.get (to_int_opt (Option.get (member "u" v))),
            bits_of_hex (Option.get (to_str_opt (Option.get (member "mean" v))))
          )
      with _ -> None)

let parse_unit_records records =
  let tbl = Hashtbl.create 64 in
  let ok =
    List.for_all
      (fun r ->
        match parse_unit_record r with
        | Some (u, m) ->
            if u >= 0 && not (Hashtbl.mem tbl u) then Hashtbl.add tbl u m;
            u >= 0
        | None -> false)
      records
  in
  if not ok then None
  else begin
    let rec prefix acc u =
      match Hashtbl.find_opt tbl u with
      | Some m -> prefix (m :: acc) (u + 1)
      | None -> Array.of_list (List.rev acc)
    in
    Some (prefix [] 0)
  end

let monte_carlo_bitparallel ~batch ~relative_precision ~max_cycles ~seed ~engine
    ?checkpoint:ck ~guard net =
  let writer, resume_means =
    match ck with
    | None -> (None, None)
    | Some ck -> (
        let header =
          (* per-unit means are a pure function of (seed, unit index) and
             bit-identical across the unit engines (the kernel suite pins
             it), so the header binds the record format, not the
             arithmetic backend: a campaign checkpointed under one unit
             engine resumes byte-identically under another *)
          header_payload ~kind:"mc-units" ~seed ~batch ~relative_precision
            ~max_cycles ~engine:"units" net
        in
        let j, records = ck_open ck ~header in
        let w = { ckw = ck; j; n = 0 } in
        match records with
        | [] -> (Some w, None)
        | _ -> (
            match parse_unit_records records with
            | Some means when Array.length means > 0 ->
                Hlp_util.Telemetry.incr tel_ck_resumes;
                (Some w, Some means)
            | Some _ -> (Some w, None)
            | None -> (Some { w with j = ck_heal ck ~header j }, None)))
  in
  let on_unit =
    Option.map
      (fun w u mean ->
        ck_append w (unit_record ~u ~mean);
        ck_notify w u)
      writer
  in
  let stop ~means ~cycles =
    (* deadline / cancellation granularity: one stopping-rule evaluation *)
    Hlp_util.Guard.check ~where:"probprop.monte_carlo" guard;
    ci_stop ~relative_precision ~max_cycles ~means ~cycles
  in
  let finally () =
    match writer with Some w -> Hlp_util.Journal.close w.j | None -> ()
  in
  let r =
    Fun.protect ~finally (fun () ->
        Hlp_sim.Parsim.monte_carlo_units ?resume_means ?on_unit ~engine net
          ~batch ~seed ~stop)
  in
  let means = r.Hlp_sim.Parsim.unit_means in
  Hlp_util.Telemetry.add tel_batches (Array.length means);
  Hlp_util.Telemetry.add tel_mc_cycles r.Hlp_sim.Parsim.cycles;
  {
    estimate = r.Hlp_sim.Parsim.mean;
    half_interval = ci_half_width means;
    cycles_used = r.Hlp_sim.Parsim.cycles;
    batches = Array.length means;
    batch_means = means;
  }

let monte_carlo ?(batch = 30) ?(relative_precision = 0.05) ?(max_cycles = 100_000)
    ?(seed = 47) ?(engine = Hlp_sim.Engine.Scalar) ?checkpoint:ck
    ?(guard = Hlp_util.Guard.unlimited) net =
  if batch < 2 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Probprop.monte_carlo: batch"
         "must be >= 2 (batch means need at least two cycles)");
  match engine with
  | Hlp_sim.Engine.Bitparallel | Hlp_sim.Engine.Compiled ->
      monte_carlo_bitparallel ~batch ~relative_precision ~max_cycles ~seed ~engine
        ?checkpoint:ck ~guard net
  | Hlp_sim.Engine.Scalar ->
  let nin = Array.length net.Netlist.inputs in
  let writer, resume =
    match ck with
    | None -> (None, None)
    | Some ck -> (
        if Netlist.num_dffs net > 0 then
          raise
            (Hlp_util.Err.invalid_input
               ~what:"Probprop.monte_carlo: checkpoint"
               "scalar checkpointing needs a combinational netlist \
                (flip-flop state cannot be restored from one vector)");
        let header =
          header_payload ~kind:"mc-scalar" ~seed ~batch ~relative_precision
            ~max_cycles ~engine:"scalar" net
        in
        let j, records = ck_open ck ~header in
        let w = { ckw = ck; j; n = 0 } in
        match records with
        | [] -> (Some w, None)
        | _ -> (
            match parse_scalar_records ~nin records with
            | Some sr ->
                Hlp_util.Telemetry.incr tel_ck_resumes;
                (Some w, Some sr)
            | None -> (Some { w with j = ck_heal ck ~header j }, None)))
  in
  let sim = Hlp_sim.Funcsim.create net in
  let rng, means0, cap0, cycles0, k0 =
    match resume with
    | None -> (Hlp_util.Prng.create seed, [], 0.0, 0, 0)
    | Some sr ->
        Hlp_sim.Funcsim.restore sim ~inputs:sr.sr_vec ~switched:sr.sr_cap
          ~cycles:sr.sr_cycles;
        ( Hlp_util.Prng.of_state sr.sr_prng,
          sr.sr_means_rev,
          sr.sr_cap,
          sr.sr_cycles,
          sr.sr_k )
  in
  let batch_means = ref means0 in
  let cycles = ref cycles0 in
  let prev_cap = ref cap0 in
  let last_vec = ref [||] in
  let journal_batch k mean =
    match writer with
    | None -> ()
    | Some w ->
        ck_append w
          (scalar_record ~k ~means:[ mean ] ~prng:(Hlp_util.Prng.state rng)
             ~cap:!prev_cap ~cycles:!cycles ~vec:!last_vec);
        ck_notify w k
  in
  (* evaluate the stopping rule on the means so far; also the resume
     entry check, covering a crash after the rule fired but before the
     run could report *)
  let stop_now () =
    let means = Array.of_list !batch_means in
    if Array.length means >= 2 && Hlp_util.Telemetry.enabled () then begin
      Hlp_util.Telemetry.observe tel_running_mean (Hlp_util.Stats.mean means);
      Hlp_util.Telemetry.observe tel_half_width (ci_half_width means)
    end;
    if Array.length means >= 3 then begin
      let m = Hlp_util.Stats.mean means in
      let half = ci_half_width means in
      if (m > 0.0 && half /. m <= relative_precision) || !cycles >= max_cycles
      then Some (m, half)
      else None
    end
    else None
  in
  let finish (m, half) k =
    (match writer with None -> () | Some w -> Hlp_util.Journal.close w.j);
    Hlp_util.Telemetry.add tel_batches k;
    Hlp_util.Telemetry.add tel_mc_cycles !cycles;
    { estimate = m;
      half_interval = half;
      cycles_used = !cycles;
      batches = k;
      (* !batch_means is newest-first; the record is chronological *)
      batch_means = Array.of_list (List.rev !batch_means) }
  in
  let rec go k =
    Hlp_util.Guard.check ~where:"probprop.monte_carlo" guard;
    Hlp_util.Trace.span
      ~args:(fun () ->
        [ ("batch", Hlp_util.Json.Int k);
          ("cycles", Hlp_util.Json.Int batch) ])
      "probprop.mc_batch"
      (fun () ->
        for _ = 1 to batch do
          let v = Array.init nin (fun _ -> Hlp_util.Prng.bool rng) in
          last_vec := v;
          Hlp_sim.Funcsim.step sim v
        done);
    cycles := !cycles + batch;
    let cap = Hlp_sim.Funcsim.switched_capacitance sim in
    let mean = (cap -. !prev_cap) /. float_of_int batch in
    batch_means := mean :: !batch_means;
    prev_cap := cap;
    journal_batch k mean;
    match stop_now () with Some mh -> finish mh k | None -> go (k + 1)
  in
  (* Journal.close is idempotent: finish seals on the success path, and
     the protect covers guard trips and faults without losing records *)
  let finally () =
    match writer with Some w -> Hlp_util.Journal.close w.j | None -> ()
  in
  Fun.protect ~finally (fun () ->
      match if k0 > 0 then stop_now () else None with
      | Some mh -> finish mh k0
      | None -> go (k0 + 1))

(* --- guarded estimation: symbolic first, sampling as the fallback --- *)

type estimator = Symbolic | Monte_carlo of monte_carlo

type provenance = {
  estimator_used : string;
  engine : string option;
  symbolic_fallback : bool;
  engine_fallbacks : int;
  seed : int;
  batches : int;
  cycles_used : int;
  half_interval : float option;
  convergence_tail : float array;
  wall_time_s : float;
}

type guarded = {
  capacitance : float;
  estimator : estimator;
  engine_used : Hlp_sim.Engine.t option;
  symbolic_fallback : bool;
  engine_fallbacks : int;
  provenance : provenance;
}

let provenance_json p =
  let open Hlp_util.Json in
  Obj
    [ ("estimator", Str p.estimator_used);
      ("engine", match p.engine with Some e -> Str e | None -> Null);
      ("symbolic_fallback", Bool p.symbolic_fallback);
      ("engine_fallbacks", Int p.engine_fallbacks);
      ("seed", Int p.seed);
      ("batches", Int p.batches);
      ("cycles_used", Int p.cycles_used);
      ("half_interval",
       match p.half_interval with Some h -> Float h | None -> Null);
      ("convergence_tail",
       List (Array.to_list (Array.map (fun x -> Float x) p.convergence_tail)));
      ("wall_time_s", Float p.wall_time_s) ]

let default_node_limit = 200_000

(* how many trailing batch means the provenance record keeps: enough to see
   whether the stopping rule was coasting or still moving, small enough to
   keep run reports compact *)
let tail_len = 8

let estimate_guarded ?(guard = Hlp_util.Guard.unlimited)
    ?(node_limit = default_node_limit) ?batch ?relative_precision ?max_cycles
    ?(seed = 47) ?(engine = Hlp_sim.Engine.Compiled) ?(try_symbolic = true)
    ?checkpoint:ck net =
  let t0 = Hlp_util.Clock.now_s () in
  let finish ~capacitance ~estimator ~engine_used ~symbolic_fallback
      ~engine_fallbacks =
    let batches, cycles_used, half_interval, convergence_tail =
      match estimator with
      | Symbolic -> (0, 0, None, [||])
      | Monte_carlo mc ->
          let n = Array.length mc.batch_means in
          let k = min tail_len n in
          ( mc.batches,
            mc.cycles_used,
            Some mc.half_interval,
            Array.sub mc.batch_means (n - k) k )
    in
    let provenance =
      { estimator_used =
          (match estimator with
          | Symbolic -> "symbolic"
          | Monte_carlo _ -> "monte_carlo");
        engine = Option.map Hlp_sim.Engine.to_string engine_used;
        symbolic_fallback;
        engine_fallbacks;
        seed;
        batches;
        cycles_used;
        half_interval;
        convergence_tail;
        wall_time_s = Hlp_util.Clock.now_s () -. t0 }
    in
    { capacitance; estimator; engine_used; symbolic_fallback; engine_fallbacks;
      provenance }
  in
  Hlp_util.Trace.span "probprop.estimate_guarded" @@ fun () ->
  Hlp_util.Guard.run guard @@ fun guard ->
  (* stage 1: exact symbolic propagation under a BDD node budget.
     Sequential netlists skip straight to sampling (the closed form needs
     a combinational cone); a budget trip is the paper's symbolic blowup,
     counted and degraded, never fatal. *)
  let symbolic_cap, symbolic_fallback =
    (* [try_symbolic = false] is perfbench's batch breaker saying the BDD
       stage has been tripping: route straight to sampling *)
    if Netlist.num_dffs net > 0 || not try_symbolic then (None, false)
    else
      match symbolic ~node_limit net with
      | stats -> (Some (estimate_capacitance net stats), false)
      | exception Hlp_util.Err.Error (Hlp_util.Err.Budget_exceeded _) ->
          Hlp_util.Telemetry.incr tel_symbolic_fallbacks;
          Hlp_util.Trace.instant
            ~args:(fun () -> [ ("node_limit", Hlp_util.Json.Int node_limit) ])
            "probprop.symbolic_budget_trip";
          (None, true)
  in
  match symbolic_cap with
  | Some cap ->
      (* a late answer is worse than a typed error: a build that ran past
         the deadline trips here, as a sampled estimate trips in its
         stopping rule *)
      Hlp_util.Guard.check ~where:"probprop.symbolic" guard;
      finish ~capacitance:cap ~estimator:Symbolic ~engine_used:None
        ~symbolic_fallback:false ~engine_fallbacks:0
  | None -> (
      Hlp_util.Guard.check ~where:"probprop.fallback" guard;
      (* stage 2: Monte Carlo sampling behind the engine degradation
         chain (Compiled -> Bitparallel -> Scalar from [engine] down) *)
      match
        Hlp_sim.Parsim.with_degradation ~what:"probprop.monte_carlo" ~guard
          ~engine (fun e ->
            monte_carlo ?batch ?relative_precision ?max_cycles ~seed ~engine:e
              ?checkpoint:ck ~guard net)
      with
      | Ok d ->
          finish ~capacitance:d.Hlp_sim.Parsim.value.estimate
            ~estimator:(Monte_carlo d.Hlp_sim.Parsim.value)
            ~engine_used:(Some d.Hlp_sim.Parsim.engine_used) ~symbolic_fallback
            ~engine_fallbacks:d.Hlp_sim.Parsim.fallbacks
      | Error e -> raise (Hlp_util.Err.Error e))
