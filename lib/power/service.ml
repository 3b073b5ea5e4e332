(* Protocol schema, dispatch, and hot caches of the estimation daemon.
   Transport (frames, pool, admission) is Hlp_util.Server; this layer
   turns request payloads into cached answers. *)

open Hlp_logic
module J = Hlp_util.Json
module Err = Hlp_util.Err
module Srv = Hlp_util.Server

let circuits =
  [ ("adder", Generators.adder_circuit);
    ("multiplier", Generators.multiplier_circuit);
    ("max", Generators.max_circuit);
    ("alu", Generators.alu_circuit);
    ("comparator", Generators.comparator_circuit);
    ("parity", Generators.parity_circuit) ]

(* input-word widths of each generator, for the macro-model dut *)
let widths_of name w =
  match name with
  | "parity" -> [ w ]
  | "alu" -> [ 2; w; w ]
  | _ -> [ w; w ]

(* The exact symbolic results live in Probprop.symbolic_memo, which is
   process-wide: this service reports and trims it but does not own it. *)
type t = {
  netlists : Netlist.t Netcache.t;
  models : (Macromodel.model * Macromodel.dut) Netcache.t;
  estimates : string Netcache.t;  (* serialized result objects *)
  started : float;  (* Clock.now_s at create, for metrics uptime *)
}

let create () =
  { netlists = Netcache.create ~capacity:64 ~name:"server.netlists" ();
    models = Netcache.create ~capacity:64 ~name:"server.models" ();
    estimates = Netcache.create ~capacity:256 ~name:"server.estimates" ();
    started = Hlp_util.Clock.now_s () }

(* --- cache snapshot / restore ---

   The crash-only lifecycle: the daemon periodically spills the cache
   whose loss is expensive — finished estimates (serialized response
   objects, so a restored hit is byte-identical by construction) — to
   one atomically-written file of CRC-framed records. Restore trusts
   nothing: the header must carry the exact snapshot version AND the
   cache-key recipe string (any change to how estimate keys are
   derived must bump the recipe, or restored entries would be served
   under wrong keys), the trailer must count exactly the entries read,
   and every record sits behind the journal CRC. Any violation — torn
   tail, bit flip, version skew, recipe skew — degrades to a counted
   cold start; restore never raises and never installs a questionable
   byte.

   Netlists, prepared models and Probprop's symbolic memo are
   deliberately not spilled: their values are live structures with no
   serial form (a memo entry holds per-node stats arrays), and they
   rebuild on demand — cheap compared to the estimates they feed.
   Version 2 dropped version 1's budget-blind symbolic records, so a
   version-1 file is a counted cold start. *)

let snapshot_version = 2

(* the estimate cache-key derivation, spelled out; change op_estimate's
   key fold => change this string *)
let snapshot_recipe =
  "fnv64:fingerprint+engine+seed+rp_bits+max_cycles+node_limit"

let snap_counter name = Hlp_util.Telemetry.counter ("server.snapshot." ^ name)
let tel_snap_saves = snap_counter "saves"
let tel_snap_restores = snap_counter "restores"
let tel_snap_entries = snap_counter "restored_entries"
let tel_snap_cold = snap_counter "cold_starts"
let tel_snap_torn = snap_counter "torn"
let tel_snap_version = snap_counter "version_mismatch"
let tel_snap_recipe = snap_counter "recipe_mismatch"

let key_hex k = Printf.sprintf "%016Lx" k
let key_of_hex s = Int64.of_string ("0x" ^ s)

let save_snapshot t ~path =
  let record j = Hlp_util.Journal.frame (J.to_string ~compact:true j) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (record
       (J.Obj
          [ ("magic", J.Str "hlpower-snapshot");
            ("version", J.Int snapshot_version);
            ("recipe", J.Str snapshot_recipe) ]));
  let entries = ref 0 in
  List.iter
    (fun (k, v) ->
      incr entries;
      Buffer.add_string buf
        (record
           (J.Obj
              [ ("cache", J.Str "estimates");
                ("key", J.Str (key_hex k));
                ("value", J.Str v) ])))
    (Netcache.items t.estimates);
  Buffer.add_string buf (record (J.Obj [ ("entries", J.Int !entries) ]));
  Hlp_util.Journal.write_atomic ~path (Buffer.contents buf);
  Hlp_util.Telemetry.incr tel_snap_saves;
  !entries

let load_snapshot t ~path =
  let cold ?counter reason =
    Hlp_util.Telemetry.incr tel_snap_cold;
    Option.iter Hlp_util.Telemetry.incr counter;
    `Cold reason
  in
  match Hlp_util.Journal.recover path with
  | exception Sys_error _ -> cold ~counter:tel_snap_torn "unreadable"
  | { Hlp_util.Journal.records = []; torn_bytes = 0; _ } -> cold "absent"
  | { records = []; _ } -> cold ~counter:tel_snap_torn "torn"
  | { records; torn_bytes; _ } when torn_bytes > 0 ->
      (* write_atomic never leaves a tail: torn bytes mean corruption *)
      ignore records;
      cold ~counter:tel_snap_torn "torn"
  | { records = header :: rest; _ } -> (
      match J.parse header with
      | Error _ -> cold ~counter:tel_snap_torn "malformed"
      | Ok h -> (
          let str name = Option.bind (J.member name h) J.to_str_opt in
          let int name = Option.bind (J.member name h) J.to_int_opt in
          match (str "magic", int "version", str "recipe") with
          | Some "hlpower-snapshot", Some v, Some _ when v <> snapshot_version
            ->
              cold ~counter:tel_snap_version "version-mismatch"
          | Some "hlpower-snapshot", Some _, Some r when r <> snapshot_recipe
            ->
              cold ~counter:tel_snap_recipe "recipe-mismatch"
          | Some "hlpower-snapshot", Some _, Some _ -> (
              (* entries, then exactly one trailer counting them *)
              let rec split acc = function
                | [] -> None
                | [ trailer ] -> Some (List.rev acc, trailer)
                | r :: tl -> split (r :: acc) tl
              in
              match split [] rest with
              | None -> cold ~counter:tel_snap_torn "truncated"
              | Some (entries, trailer) -> (
                  match
                    Option.bind
                      (Result.to_option (J.parse trailer))
                      (fun tj -> Option.bind (J.member "entries" tj) J.to_int_opt)
                  with
                  | Some n when n = List.length entries ->
                      let restored = ref 0 in
                      let install rec_s =
                        match J.parse rec_s with
                        | Error _ -> raise Exit
                        | Ok e -> (
                            let s name =
                              Option.bind (J.member name e) J.to_str_opt
                            in
                            match (s "cache", s "key") with
                            | Some "estimates", Some k -> (
                                match s "value" with
                                | Some v ->
                                    Netcache.put t.estimates ~key:(key_of_hex k)
                                      v;
                                    incr restored
                                | None -> raise Exit)
                            | _ -> raise Exit)
                      in
                      (match List.iter install entries with
                      | () ->
                          Hlp_util.Telemetry.incr tel_snap_restores;
                          for _ = 1 to !restored do
                            Hlp_util.Telemetry.incr tel_snap_entries
                          done;
                          `Restored !restored
                      | exception (Exit | Failure _) ->
                          (* a record decoded but made no sense: drop the
                             whole restore — partial trust is no trust *)
                          ignore (Netcache.clear t.estimates);
                          cold ~counter:tel_snap_torn "malformed")
                  | _ -> cold ~counter:tel_snap_torn "truncated"))
          | _ -> cold ~counter:tel_snap_torn "malformed"))

(* --- memory-pressure relief ---

   Wired as Server's [on_memory_soft] callback: every soft-budget sample
   sheds a fixed fraction of each cache (second-chance order, so the hot
   working set survives longest). Repeated pressure shrinks the caches
   geometrically toward empty; the estimate and symbolic-memo evictions
   are the ones that actually return memory at scale. *)

let trim ?(fraction = 0.25) t =
  let f = if Float.is_finite fraction then Float.max 0.0 (Float.min 1.0 fraction) else 0.25 in
  let one c =
    let n = int_of_float (ceil (float_of_int (Netcache.length c) *. f)) in
    if n > 0 then Netcache.evict c n else 0
  in
  one t.estimates + one Probprop.symbolic_memo + one t.models + one t.netlists

(* --- envelopes ---

   Every envelope echoes the request id [rid] so a client-observed slow
   or failed request is findable in the server's access log and trace by
   the same string. *)

let ok_envelope ?(cached = false) ~rid id result =
  J.to_string ~compact:true
    (J.Obj
       [ ("id", J.Int id);
         ("rid", J.Str rid);
         ("ok", J.Bool true);
         ("cached", J.Bool cached);
         ("result", result) ])

let error_envelope_parts ~rid id cls msg code =
  J.to_string ~compact:true
    (J.Obj
       [ ("id", J.Int id);
         ("rid", J.Str rid);
         ("ok", J.Bool false);
         ( "error",
           J.Obj
             [ ("class", J.Str cls);
               ("message", J.Str msg);
               ("exit_code", J.Int code) ] ) ])

let error_envelope ~rid id e =
  error_envelope_parts ~rid id (Err.class_name e) (Err.to_string e)
    (Err.exit_code e)

(* Shed frames carry a retry_after_s hint so a resilient client backs
   off instead of reconnecting immediately into the same full queue. *)
let overload_response e =
  J.to_string ~compact:true
    (J.Obj
       [ ("id", J.Int (-1));
         ("ok", J.Bool false);
         ( "error",
           J.Obj
             [ ("class", J.Str (Err.class_name e));
               ("message", J.Str (Err.to_string e));
               ("exit_code", J.Int (Err.exit_code e));
               ("retry_after_s", J.Float Hlp_util.Server.retry_after_hint_s) ] )
       ])

(* --- request field access (typed errors, never exceptions) --- *)

let bad what why = raise (Err.invalid_input ~what:("request " ^ what) why)

let opt_field obj name conv what =
  match J.member name obj with
  | None -> None
  | Some v -> (
      match conv v with
      | Some x -> Some x
      | None -> bad name ("must be " ^ what))

let opt_int obj name = opt_field obj name J.to_int_opt "an integer"
let opt_float obj name = opt_field obj name J.to_float_opt "a number"
let opt_str obj name = opt_field obj name J.to_str_opt "a string"

let req_str obj name =
  match opt_str obj name with Some s -> s | None -> bad name "is required"

let with_default d = function Some v -> v | None -> d

let fbits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* --- common request decoding --- *)

let decode_circuit t obj =
  let name = req_str obj "circuit" in
  let gen =
    match List.assoc_opt name circuits with
    | Some g -> g
    | None ->
        bad "circuit"
          ("unknown (expected one of "
          ^ String.concat ", " (List.map fst circuits)
          ^ ")")
  in
  let width = with_default 8 (opt_int obj "width") in
  if width < 1 || width > 24 then bad "width" "must be in 1..24";
  let net =
    Netcache.find_or_compute t.netlists
      ~key:(Netcache.combine (Netcache.hash_string name) (Int64.of_int width))
      (fun () -> gen width)
  in
  (name, width, net)

(* the compiled kernel: bit-identical to the interpreters (the kernel
   differential wall), and the fastest of them per cycle *)
let decode_engine obj =
  let s = with_default "compiled" (opt_str obj "engine") in
  match Hlp_sim.Engine.of_string s with
  | Some e -> e
  | None -> bad "engine" ("unknown engine " ^ s)

(* --- ops --- *)

let op_ping obj ~rid id =
  let sleep_s = with_default 0.0 (opt_float obj "sleep_s") in
  if (not (Float.is_finite sleep_s)) || sleep_s < 0.0 || sleep_s > 30.0 then
    bad "sleep_s" "must be in [0, 30]";
  if sleep_s > 0.0 then Unix.sleepf sleep_s;
  ok_envelope ~rid id
    (J.Obj [ ("op", J.Str "ping"); ("pong", J.Bool true) ])

let op_estimate t guard (ctx : Srv.ctx) obj ~rid id =
  let name, width, net = decode_circuit t obj in
  let engine = decode_engine obj in
  let seed = with_default 47 (opt_int obj "seed") in
  let rp = with_default 0.05 (opt_float obj "relative_precision") in
  (* an explicit bound must be positive: the key folds an absent bound as
     0, so an explicit 0 would share its key with the default. It is also
     capped, at 100x the Monte Carlo default and 10x the BDD default, so
     one well-formed request cannot hold a worker for an unbounded run *)
  let bounded name cap =
    let v = opt_int obj name in
    Option.iter
      (fun x ->
        if x < 1 || x > cap then
          bad name (Printf.sprintf "must be in 1..%d" cap))
      v;
    v
  in
  let max_cycles = bounded "max_cycles" 10_000_000 in
  let node_limit = bounded "node_limit" (10 * Probprop.default_node_limit) in
  let key =
    let open Netcache in
    List.fold_left combine
      (Netlist.fingerprint net)
      [ hash_string (Hlp_sim.Engine.to_string engine);
        Int64.of_int seed;
        Int64.bits_of_float rp;
        Int64.of_int (with_default 0 max_cycles);
        Int64.of_int (with_default 0 node_limit) ]
  in
  ctx.Srv.key <- Printf.sprintf "%016Lx" key;
  let result, outcome =
    Netcache.find_or_compute_outcome t.estimates ~key (fun () ->
        match
          Probprop.estimate_guarded ~guard ~seed ~engine ~relative_precision:rp
            ?max_cycles ?node_limit net
        with
        | Error e -> raise (Err.Error e)  (* never cache failures *)
        | Ok g ->
            let p = g.Probprop.provenance in
            J.to_string ~compact:true
              (J.Obj
                 [ ("op", J.Str "estimate");
                   ("circuit", J.Str name);
                   ("width", J.Int width);
                   ("engine", J.Str (Hlp_sim.Engine.to_string engine));
                   ("seed", J.Int seed);
                   ("relative_precision", J.Float rp);
                   ("capacitance", J.Float g.Probprop.capacitance);
                   ("capacitance_bits", J.Str (fbits g.Probprop.capacitance));
                   ("estimator", J.Str p.Probprop.estimator_used);
                   ( "engine_used",
                     match p.Probprop.engine with
                     | Some e -> J.Str e
                     | None -> J.Null );
                   ("symbolic_fallback", J.Bool g.Probprop.symbolic_fallback);
                   ("batches", J.Int p.Probprop.batches);
                   ("cycles_used", J.Int p.Probprop.cycles_used);
                   ( "half_interval",
                     match p.Probprop.half_interval with
                     | Some h -> J.Float h
                     | None -> J.Null ) ]))
  in
  ctx.Srv.cache <-
    (match outcome with
    | `Hit -> "hit"
    | `Miss -> "miss"
    | `Coalesced -> "coalesced");
  (* [cached] keeps its pre-outcome meaning: true only for a value that
     was already in the table when the request arrived — a coalesced
     joiner shared a computation that ran on its behalf *)
  let cached = outcome = `Hit in
  Printf.sprintf
    "{\"id\":%d,\"rid\":\"%s\",\"ok\":true,\"cached\":%b,\"result\":%s}" id
    (J.escape rid) cached result

let op_sampler t obj ~rid id =
  let name, width, net = decode_circuit t obj in
  let engine = decode_engine obj in
  let seed = with_default 47 (opt_int obj "seed") in
  let cycles = with_default 256 (opt_int obj "cycles") in
  if cycles < 2 || cycles > 100_000 then bad "cycles" "must be in 2..100000";
  let widths = widths_of name width in
  let model, dut =
    Netcache.find_or_compute t.models
      ~key:
        (Netcache.combine
           (Netcache.combine (Netlist.fingerprint net) (Int64.of_int seed))
           (Int64.of_int width))
      (fun () ->
        let dut = { Macromodel.net; widths } in
        let obs =
          List.map (Macromodel.observe dut)
            (Macromodel.training_streams ~seed dut)
        in
        (Macromodel.fit Macromodel.Bitwise dut obs, dut))
  in
  let rng = Hlp_util.Prng.create seed in
  let traces =
    List.map (fun w -> Hlp_sim.Streams.uniform rng ~width:w ~n:cycles) widths
  in
  let s = Sampling.prepare_cached ~engine model dut traces in
  let census = (Sampling.census s).Sampling.value in
  let sampled = (Sampling.sampler ~seed s).Sampling.value in
  let gate_ref = Sampling.gate_reference s in
  ok_envelope ~rid id
    (J.Obj
       [ ("op", J.Str "sampler");
         ("circuit", J.Str name);
         ("width", J.Int width);
         ("engine", J.Str (Hlp_sim.Engine.to_string engine));
         ("seed", J.Int seed);
         ("cycles", J.Int cycles);
         ("census", J.Float census);
         ("census_bits", J.Str (fbits census));
         ("sampled", J.Float sampled);
         ("sampled_bits", J.Str (fbits sampled));
         ("gate_reference", J.Float gate_ref);
         ("gate_reference_bits", J.Str (fbits gate_ref)) ])

(* One source of truth for service counters: [stats] is a thin alias
   serving exactly these fields; [metrics] serves them plus the full
   flight-recorder snapshot. *)
let stats_fields t =
  [ ("netlists", J.Int (Netcache.length t.netlists));
    ("symbolic", J.Int (Netcache.length Probprop.symbolic_memo));
    ("models", J.Int (Netcache.length t.models));
    ("estimates", J.Int (Netcache.length t.estimates));
    ("estimates_inflight", J.Int (Netcache.inflight t.estimates));
    ( "estimates_coalesced",
      J.Int
        (Hlp_util.Telemetry.count
           (Hlp_util.Telemetry.counter "server.estimates.coalesced")) );
    ("kernel_plans", J.Int (Hlp_sim.Kernel.cache_length ())) ]

let op_stats t ~rid id =
  ok_envelope ~rid id (J.Obj (("op", J.Str "stats") :: stats_fields t))

let cache_json : 'a. 'a Netcache.t -> string * J.t =
 fun c ->
  let cnt suffix =
    Hlp_util.Telemetry.count
      (Hlp_util.Telemetry.counter (Netcache.name c ^ suffix))
  in
  let hits = cnt ".cache_hits" and misses = cnt ".cache_misses" in
  let lookups = hits + misses in
  ( Netcache.name c,
    J.Obj
      [ ("length", J.Int (Netcache.length c));
        ("capacity", J.Int (Netcache.capacity c));
        ("inflight", J.Int (Netcache.inflight c));
        ("hits", J.Int hits);
        ("misses", J.Int misses);
        ("evictions", J.Int (cnt ".cache_evictions"));
        ("coalesced", J.Int (cnt ".coalesced"));
        ( "hit_ratio",
          if lookups = 0 then J.Null
          else J.Float (float_of_int hits /. float_of_int lookups) ) ] )

let op_metrics t ~rid id =
  let tel = Hlp_util.Telemetry.json_value () in
  let pick name = Option.value ~default:(J.Obj []) (J.member name tel) in
  ok_envelope ~rid id
    (J.Obj
       (("op", J.Str "metrics")
        :: ("uptime_s", J.Float (Hlp_util.Clock.now_s () -. t.started))
        :: ( "rss_bytes",
             match Hlp_util.Memstat.rss_bytes () with
             | Some b -> J.Int b
             | None -> J.Null )
        :: ("telemetry_enabled", J.Bool (Hlp_util.Telemetry.enabled ()))
        :: stats_fields t
       @ [ ("counters", pick "counters");
           ("histograms", pick "histograms");
           ( "caches",
             J.Obj
               [ cache_json t.netlists;
                 cache_json Probprop.symbolic_memo;
                 cache_json t.models;
                 cache_json t.estimates ] ) ]))

(* --- Prometheus text exposition of a metrics result object --- *)

let prom_ident name =
  "hlpower_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let prometheus_of_metrics v =
  let b = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  (match Option.bind (J.member "uptime_s" v) J.to_float_opt with
  | Some u ->
      line "# TYPE hlpower_uptime_seconds gauge";
      line "hlpower_uptime_seconds %s" (J.float_repr u)
  | None -> ());
  (match J.member "counters" v with
  | Some (J.Obj kvs) ->
      List.iter
        (fun (name, jv) ->
          match jv with
          | J.Int n ->
              let m = prom_ident name in
              line "# TYPE %s counter" m;
              line "%s %d" m n
          | _ -> ())
        kvs
  | _ -> ());
  (match J.member "caches" v with
  | Some (J.Obj caches) ->
      List.iter
        (fun field ->
          let metric = "hlpower_cache_" ^ field in
          let values =
            List.filter_map
              (fun (cname, cv) ->
                Option.map
                  (fun x -> (cname, x))
                  (Option.bind (J.member field cv) J.to_float_opt))
              caches
          in
          if values <> [] then begin
            line "# TYPE %s gauge" metric;
            List.iter
              (fun (cname, x) ->
                line "%s{cache=%S} %s" metric cname (J.float_repr x))
              values
          end)
        [ "length"; "capacity"; "inflight"; "hits"; "misses"; "evictions";
          "coalesced"; "hit_ratio" ]
  | _ -> ());
  (match J.member "histograms" v with
  | Some (J.Obj hs) ->
      List.iter
        (fun (name, h) ->
          let metric = prom_ident name in
          line "# TYPE %s histogram" metric;
          let buckets =
            match Option.bind (J.member "buckets" h) J.to_list_opt with
            | Some l -> l
            | None -> []
          in
          (* our buckets are per-bucket counts; Prometheus wants
             cumulative-to-upper-bound *)
          let cum = ref 0 in
          List.iter
            (fun bkt ->
              match J.to_list_opt bkt with
              | Some [ upper; cnt ] -> (
                  match (J.to_float_opt upper, J.to_int_opt cnt) with
                  | Some u, Some c ->
                      cum := !cum + c;
                      line "%s_bucket{le=%S} %d" metric
                        (Printf.sprintf "%g" u)
                        !cum
                  | _ -> ())
              | _ -> ())
            buckets;
          let count =
            Option.value ~default:!cum
              (Option.bind (J.member "count" h) J.to_int_opt)
          in
          line "%s_bucket{le=\"+Inf\"} %d" metric count;
          (match Option.bind (J.member "sum" h) J.to_float_opt with
          | Some s -> line "%s_sum %s" metric (J.float_repr s)
          | None -> ());
          line "%s_count %d" metric count)
        hs
  | _ -> ());
  Buffer.contents b

let handle t (ctx : Srv.ctx) payload =
  match J.parse payload with
  | Error msg ->
      ctx.Srv.status <- "invalid-input";
      error_envelope_parts ~rid:ctx.Srv.rid (-1) "invalid-input"
        ("request parse: " ^ msg) 65
  | Ok req -> (
      let id = with_default 0 (try opt_int req "id" with Err.Error _ -> None) in
      (* a caller-supplied rid replaces the transport's fallback, so both
         sides of the wire log the same string *)
      (match (try opt_str req "rid" with Err.Error _ -> None) with
      | Some r when r <> "" -> ctx.Srv.rid <- r
      | _ -> ());
      let rid = ctx.Srv.rid in
      try
        let op = req_str req "op" in
        ctx.Srv.op <- op;
        Hlp_util.Trace.span ("service." ^ op)
          ~args:(fun () -> [ ("rid", J.Str rid) ])
          (fun () ->
            match op with
            | "ping" -> op_ping req ~rid id
            | "estimate" -> op_estimate t ctx.Srv.guard ctx req ~rid id
            | "sampler" -> op_sampler t req ~rid id
            | "stats" -> op_stats t ~rid id
            | "metrics" -> op_metrics t ~rid id
            | other -> bad "op" ("unknown op " ^ other))
      with
      | Err.Error e ->
          ctx.Srv.status <- Err.class_name e;
          error_envelope ~rid id e
      | exn ->
          (* a programming error must still answer this request; the
             daemon itself never dies for one frame *)
          ctx.Srv.status <- "internal";
          error_envelope_parts ~rid id "internal" (Printexc.to_string exn) 70)

(* --- request builders --- *)

(* Builders stamp a client-side rid when the caller did not supply one,
   so every request is findable server-side without caller bookkeeping. *)
let build ?id ?rid op fields =
  let id = match id with Some i -> [ ("id", J.Int i) ] | None -> [] in
  let rid =
    match rid with Some r -> r | None -> Srv.fresh_rid ~prefix:"c" ()
  in
  J.to_string ~compact:true
    (J.Obj (id @ (("rid", J.Str rid) :: ("op", J.Str op) :: fields)))

let opt_j name conv = function Some v -> [ (name, conv v) ] | None -> []

let ping_request ?id ?rid ?sleep_s () =
  build ?id ?rid "ping" (opt_j "sleep_s" (fun s -> J.Float s) sleep_s)

let estimate_request ?id ?rid ?engine ?seed ?relative_precision ?max_cycles
    ?node_limit ~circuit ~width () =
  build ?id ?rid "estimate"
    ([ ("circuit", J.Str circuit); ("width", J.Int width) ]
    @ opt_j "engine" (fun e -> J.Str e) engine
    @ opt_j "seed" (fun s -> J.Int s) seed
    @ opt_j "relative_precision" (fun r -> J.Float r) relative_precision
    @ opt_j "max_cycles" (fun m -> J.Int m) max_cycles
    @ opt_j "node_limit" (fun n -> J.Int n) node_limit)

let sampler_request ?id ?rid ?engine ?seed ?cycles ~circuit ~width () =
  build ?id ?rid "sampler"
    ([ ("circuit", J.Str circuit); ("width", J.Int width) ]
    @ opt_j "engine" (fun e -> J.Str e) engine
    @ opt_j "seed" (fun s -> J.Int s) seed
    @ opt_j "cycles" (fun c -> J.Int c) cycles)

let stats_request ?id ?rid () = build ?id ?rid "stats" []
let metrics_request ?id ?rid () = build ?id ?rid "metrics" []

(* --- response decoding --- *)

type response = {
  id : int;
  rid : string;
  ok : bool;
  cached : bool;
  result : J.t option;
  error : (string * string * int) option;
}

let parse_response s =
  match J.parse s with
  | Error msg -> Error ("response parse: " ^ msg)
  | Ok v -> (
      match J.member "ok" v with
      | Some (J.Bool ok) ->
          let id =
            match Option.bind (J.member "id" v) J.to_int_opt with
            | Some i -> i
            | None -> -1
          in
          let cached =
            match J.member "cached" v with Some (J.Bool b) -> b | _ -> false
          in
          let rid =
            Option.value ~default:""
              (Option.bind (J.member "rid" v) J.to_str_opt)
          in
          let error =
            match J.member "error" v with
            | Some e ->
                let s name =
                  Option.value ~default:""
                    (Option.bind (J.member name e) J.to_str_opt)
                in
                let code =
                  Option.value ~default:1
                    (Option.bind (J.member "exit_code" e) J.to_int_opt)
                in
                Some (s "class", s "message", code)
            | None -> None
          in
          Ok { id; rid; ok; cached; result = J.member "result" v; error }
      | _ -> Error "response missing \"ok\"")

let result_string r =
  Option.map (fun j -> J.to_string ~compact:true j) r.result
