type t = {
  macro_values : float array;  (** per transition (cycle pairs), length n-1 *)
  gate_values : float array;  (** per transition, gate-level capacitance *)
}

let tel_macro_evals = Hlp_util.Telemetry.counter "sampling.macro_evals"
let tel_gate_cycles = Hlp_util.Telemetry.counter "sampling.gate_sample_cycles"
let tel_prepare_time = Hlp_util.Telemetry.timer "sampling.prepare"

(* All three estimators divide by sample sums and feed [Stats.mean]: a
   length mismatch, an empty stream, or a poisoned (non-finite) value
   would surface far downstream as an index error or a silent NaN
   estimate. Validation at assembly turns each into a typed error. *)
let validate ~what ~macro_values ~gate_values =
  let nm = Array.length macro_values and ng = Array.length gate_values in
  if nm <> ng then
    raise
      (Hlp_util.Err.invalid_input ~what
         (Printf.sprintf "length mismatch: %d macro vs %d gate values" nm ng));
  if nm = 0 then
    raise (Hlp_util.Err.invalid_input ~what "empty: need at least one transition");
  let check_finite name a =
    Array.iteri
      (fun i x ->
        if not (Float.is_finite x) then
          raise
            (Hlp_util.Err.invalid_input ~what
               (Printf.sprintf "%s.(%d) is not finite (%h): poisoned sample" name
                  i x)))
      a
  in
  check_finite "macro_values" macro_values;
  check_finite "gate_values" gate_values

let of_arrays ~macro_values ~gate_values =
  validate ~what:"Sampling.of_arrays" ~macro_values ~gate_values;
  { macro_values; gate_values }

let of_arrays_checked ~macro_values ~gate_values =
  Hlp_util.Err.protect (fun () -> of_arrays ~macro_values ~gate_values)

let prepare ?(engine = Hlp_sim.Engine.Scalar) model dut traces =
  Hlp_util.Telemetry.time tel_prepare_time @@ fun () ->
  Hlp_util.Trace.span
    ~args:(fun () ->
      [ ("engine", Hlp_util.Json.Str (Hlp_sim.Engine.to_string engine));
        ("streams", Hlp_util.Json.Int (List.length traces)) ])
    "sampling.prepare"
  @@ fun () ->
  let n =
    match traces with
    | [] ->
        raise
          (Hlp_util.Err.invalid_input ~what:"Sampling.prepare: traces"
             "need at least one input stream")
    | t :: rest ->
        let n = Array.length t in
        List.iteri
          (fun i t' ->
            if Array.length t' <> n then
              raise
                (Hlp_util.Err.invalid_input ~what:"Sampling.prepare: traces"
                   (Printf.sprintf "stream %d has %d words, stream 0 has %d"
                      (i + 1) (Array.length t') n)))
          rest;
        n
  in
  if n < 2 then
    raise
      (Hlp_util.Err.invalid_input ~what:"Sampling.prepare: traces"
         "need at least two cycles (estimators average over transitions)");
  let widths = dut.Macromodel.widths in
  if List.length widths <> List.length traces then
    raise
      (Hlp_util.Err.invalid_input ~what:"Sampling.prepare: traces"
         (Printf.sprintf "%d streams for a DUT with %d input words"
            (List.length traces) (List.length widths)));
  let m = Array.length dut.Macromodel.net.Hlp_logic.Netlist.outputs in
  let vector i = Hlp_sim.Streams.pack ~widths traces i in
  let r = Hlp_sim.Parsim.replay ~engine dut.Macromodel.net ~vector ~n in
  let out_words = r.Hlp_sim.Parsim.out_words in
  let gate_values = r.Hlp_sim.Parsim.transition_caps in
  (* per-transition macro-model evaluation on a two-word window *)
  let window i =
    let in_acts, sign_probs =
      List.split
        (List.map2
           (fun w tr ->
             let pair = [| tr.(i); tr.(i + 1) |] in
             ( Hlp_sim.Activity.of_trace ~width:w pair,
               Hlp_sim.Activity.sign_transition_probs ~width:w pair ))
           widths traces)
    in
    let out_pair = [| out_words.(i); out_words.(i + 1) |] in
    {
      Macromodel.in_acts;
      out_act = Hlp_sim.Activity.of_trace ~width:(max m 1) out_pair;
      sign_probs;
      breakpoints = List.map Hlp_sim.Activity.breakpoint in_acts;
    }
  in
  (* fault-injection point: a macro-model evaluation producing a poisoned
     (non-finite) per-transition value *)
  let predict_at i =
    let v = Macromodel.predict model (window i) in
    if Hlp_util.Faultinject.fire Hlp_util.Faultinject.Trace_sample then Float.nan
    else v
  in
  let macro_values =
    Hlp_util.Trace.span
      ~args:(fun () -> [ ("transitions", Hlp_util.Json.Int (n - 1)) ])
      "sampling.macro_eval"
      (fun () -> Array.init (n - 1) predict_at)
  in
  Hlp_util.Telemetry.add tel_macro_evals (n - 1);
  (* of_arrays validates lengths and finiteness, so a poisoned replay or
     macro evaluation surfaces here as a typed error, not as a silent NaN
     estimate downstream *)
  of_arrays ~macro_values ~gate_values

(* --- durable replay cache ---

   [prepare] is the expensive half of cosimulation (a full gate-level
   replay); the cache journals its per-transition value streams so a
   restarted campaign reloads them instead of re-simulating. Layout:
   a header binding the cache to (circuit fingerprint, engine, trace
   digest), chunked records of float bits, and a terminal done-marker —
   so a torn or incomplete cache is detected structurally and treated as
   a miss, never half-believed. *)

let tel_cache_hits = Hlp_util.Telemetry.counter "sampling.cache_hits"
let tel_cache_misses = Hlp_util.Telemetry.counter "sampling.cache_misses"

let bits_hex f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let bits_of_hex s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let traces_digest traces =
  let b = Buffer.create 1024 in
  List.iter
    (fun tr ->
      Buffer.add_string b (string_of_int (Array.length tr));
      Buffer.add_char b ';';
      Array.iter
        (fun w ->
          let v = Int64.of_int w in
          for k = 0 to 7 do
            Buffer.add_char b
              (Char.chr
                 (Int64.to_int
                    (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
          done)
        tr)
    traces;
  Printf.sprintf "%lx" (Hlp_util.Journal.crc32 (Buffer.contents b))

let cache_header ~engine ~digest dut =
  Hlp_util.Json.to_string ~compact:true
    (Hlp_util.Json.Obj
       [ ("v", Hlp_util.Json.Int 1);
         ("kind", Hlp_util.Json.Str "sampling-cache");
         ("net",
          Hlp_util.Json.Str
            (Printf.sprintf "%Lx"
               (Hlp_logic.Netlist.fingerprint dut.Macromodel.net)));
         ("engine", Hlp_util.Json.Str (Hlp_sim.Engine.to_string engine));
         ("traces", Hlp_util.Json.Str digest) ])

let cache_chunk = 256

(* body records into (macro, gate) arrays; [None] on any structural flaw *)
let load_cache records =
  let open Hlp_util.Json in
  let rec go count macc gacc = function
    | [] -> None (* no done-marker: the writer died mid-cache *)
    | [ last ] -> (
        match parse last with
        | Ok v -> (
            match member "done" v with
            | Some d when to_int_opt d = Some count && count > 0 ->
                let cat l = Array.concat (List.rev l) in
                Some (cat macc, cat gacc)
            | _ -> None)
        | Error _ -> None)
    | r :: rest -> (
        match parse r with
        | Error _ -> None
        | Ok v -> (
            try
              let i = Option.get (to_int_opt (Option.get (member "i" v))) in
              let arr name =
                Array.of_list
                  (List.map
                     (fun x -> bits_of_hex (Option.get (to_str_opt x)))
                     (Option.get (to_list_opt (Option.get (member name v)))))
              in
              let m = arr "m" and g = arr "g" in
              if i <> count || Array.length m <> Array.length g then None
              else go (count + Array.length m) (m :: macc) (g :: gacc) rest
            with _ -> None))
  in
  go 0 [] [] records

let prepare_journaled ?(engine = Hlp_sim.Engine.Scalar) ~path model dut traces =
  let digest = traces_digest traces in
  let header = cache_header ~engine ~digest dut in
  let recompute () =
    Hlp_util.Telemetry.incr tel_cache_misses;
    let t = prepare ~engine model dut traces in
    let j, _ = Hlp_util.Journal.open_ ~resume:false path in
    Fun.protect
      ~finally:(fun () -> Hlp_util.Journal.close j)
      (fun () ->
        Hlp_util.Journal.append j header;
        let n = Array.length t.macro_values in
        let k = ref 0 in
        while !k < n do
          let len = min cache_chunk (n - !k) in
          let slice name a =
            ( name,
              Hlp_util.Json.List
                (List.init len (fun d ->
                     Hlp_util.Json.Str (bits_hex a.(!k + d)))) )
          in
          Hlp_util.Journal.append j
            (Hlp_util.Json.to_string ~compact:true
               (Hlp_util.Json.Obj
                  [ ("i", Hlp_util.Json.Int !k);
                    slice "m" t.macro_values;
                    slice "g" t.gate_values ]));
          k := !k + len
        done;
        Hlp_util.Journal.append j
          (Hlp_util.Json.to_string ~compact:true
             (Hlp_util.Json.Obj [ ("done", Hlp_util.Json.Int n) ])));
    t
  in
  let r = Hlp_util.Journal.recover path in
  match r.Hlp_util.Journal.records with
  | h :: rest when String.equal h header -> (
      match load_cache rest with
      | Some (macro_values, gate_values) -> (
          (* revalidate through the checked assembler: a corrupt-but-CRC-
             valid cache degrades to a recompute, never to a bad stream *)
          match of_arrays_checked ~macro_values ~gate_values with
          | Ok t ->
              Hlp_util.Telemetry.incr tel_cache_hits;
              Hlp_util.Trace.instant "sampling.cache_hit";
              t
          | Error _ -> recompute ())
      | None -> recompute ())
  | _ -> recompute ()

(* In-memory prepared-sampler cache for the serve daemon: same artifact
   as the journaled cache, but process-local and keyed on the exact
   model too (fingerprint + engine + trace digest + model kind/coeffs),
   so a refitted model can never serve a stale stream. Prepared values
   are read-only after construction, satisfying Netcache's sharing
   contract. *)
let prepare_cache : t Hlp_logic.Netcache.t =
  Hlp_logic.Netcache.create ~capacity:32 ~name:"sampling.mem" ()

let clear_prepare_cache () = ignore (Hlp_logic.Netcache.clear prepare_cache)

let prepare_cached ?(engine = Hlp_sim.Engine.Scalar) model dut traces =
  let open Hlp_logic.Netcache in
  let model_key =
    Array.fold_left
      (fun h c -> combine h (Int64.bits_of_float c))
      (hash_string (Macromodel.kind_name (Macromodel.model_kind model)))
      (Macromodel.model_coeffs model)
  in
  let key =
    combine
      (combine
         (combine
            (Hlp_logic.Netlist.fingerprint dut.Macromodel.net)
            (hash_string (Hlp_sim.Engine.to_string engine)))
         (hash_string (traces_digest traces)))
      model_key
  in
  find_or_compute prepare_cache ~key (fun () -> prepare ~engine model dut traces)

let cycles t = Array.length t.macro_values

let gate_reference t = Hlp_util.Stats.mean t.gate_values

type estimate = {
  value : float;
  macro_evaluations : int;
  gate_cycles : int;
}

let census t =
  { value = Hlp_util.Stats.mean t.macro_values;
    macro_evaluations = Array.length t.macro_values;
    gate_cycles = 0 }

let sampler ?(num_samples = 5) ?(sample_size = 40) ~seed t =
  assert (sample_size >= 30);
  let rng = Hlp_util.Prng.create seed in
  let n = Array.length t.macro_values in
  let sample_mean () =
    let acc = ref 0.0 in
    for _ = 1 to sample_size do
      acc := !acc +. t.macro_values.(Hlp_util.Prng.int rng n)
    done;
    !acc /. float_of_int sample_size
  in
  let means = Array.init num_samples (fun _ -> sample_mean ()) in
  { value = Hlp_util.Stats.mean means;
    macro_evaluations = num_samples * sample_size;
    gate_cycles = 0 }

let adaptive ?(sample_size = 40) ~seed t =
  let rng = Hlp_util.Prng.create seed in
  let n = Array.length t.macro_values in
  let idx = Array.init sample_size (fun _ -> Hlp_util.Prng.int rng n) in
  let gate_sample = Array.map (fun i -> t.gate_values.(i)) idx in
  let macro_sample = Array.map (fun i -> t.macro_values.(i)) idx in
  let census_macro = Hlp_util.Stats.mean t.macro_values in
  (* Stats.ratio_estimator falls back to population_x (= the census macro
     estimate) when the sampled macro values sum to zero, so a zero-activity
     sample degrades to the census estimate instead of reporting 0 power *)
  let value =
    Hlp_util.Stats.ratio_estimator ~y:gate_sample ~x:macro_sample
      ~population_x:census_macro
  in
  Hlp_util.Telemetry.add tel_gate_cycles sample_size;
  { value; macro_evaluations = n; gate_cycles = sample_size }
