(* The traced run: where each operation's time goes, from spans around the
   calls into each layer's public functions, recorded only here.

   A daemon workload is measured twice. Against a real daemon for its ping
   round trip, frame bytes and estimate-cache counters; then replayed in
   process, where each request is first decomposed into the layer calls
   Service.handle makes, in its order (request parse, netlist cache,
   fingerprint, estimate cache, symbolic attempt, Monte Carlo), and then
   served by Service.handle between real frames on a socketpair. The
   decomposed capacitance must equal the served one. The batch and replay
   workloads are decomposed the same way around their own layers. Traced
   and untraced blocks of operations alternate; the untraced ones give the
   allocation per operation and the baseline of the tracing overhead. *)

open Util
module S = Hlp_power.Service
module Srv = Hlp_util.Server
module P = Hlp_power.Probprop
module Netcache = Hlp_logic.Netcache
module Netlist = Hlp_logic.Netlist
module Engine = Hlp_sim.Engine
module Kernel = Hlp_sim.Kernel
module W = Workloads

(* every per-layer metric, in report order; a layer the workload does not
   use reads 0 *)
let names =
  [ ("server.ping_rtt_us", "us");
    ("server.bytes_per_op", "bytes");
    ("json.request_parse_us", "us");
    ("json.response_parse_us", "us");
    ("service.handle_us", "us");
    ("service.transport_us", "us");
    ("netcache.lookup_us", "us");
    ("netcache.estimates.hit_ratio", "ratio");
    ("netcache.estimates.evictions", "count");
    ("netcache.estimates.coalesced", "count");
    ("netlist.build_us", "us");
    ("netlist.fingerprint_us", "us");
    ("netlist.fingerprint_walks_per_op", "walks/op");
    ("symbolic.attempt_ms", "ms");
    ("symbolic.trips_per_op", "trips/op");
    ("symbolic.share", "ratio");
    ("mc.ms_per_op", "ms");
    ("mc.cycles_per_op", "cycles");
    ("mc.ns_per_cycle", "ns");
    ("mc.share", "ratio");
    ("kernel.compile_ms", "ms");
    ("kernel.ns_per_cycle", "ns");
    ("kernel.share", "ratio");
    ("parsim.pack_ns_per_cycle", "ns");
    ("supervisor.queue_wait_ms", "ms");
    ("supervisor.breaker_opens", "count");
    ("journal.checkpoint_ms_per_job", "ms");
    ("journal.result_write_ms", "ms");
    ("journal.share", "ratio");
    ("gc.minor_mwords_per_op", "Mwords");
    ("gc.promoted_mwords_per_op", "Mwords");
    ("gc.major_collections_per_op", "count");
    ("unattributed_share", "ratio");
    ("trace.overhead", "ratio") ]

(* sums over one workload's operations, by key *)
type acc = {
  sums : (string, float) Hashtbl.t;
  mutable traced : float list;  (** end to end of each traced operation *)
  mutable untraced : float list;  (** end to end of each untraced one *)
}

let acc () = { sums = Hashtbl.create 32; traced = []; untraced = [] }
let get a k = Option.value ~default:0.0 (Hashtbl.find_opt a.sums k)
let add a k v = Hashtbl.replace a.sums k (get a k +. v)

(* allocation of untraced operations, from Gc.quick_stat *)
let with_gc a ~ops f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  add a "gc.minor" (s1.Gc.minor_words -. s0.Gc.minor_words);
  add a "gc.promoted" (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  add a "gc.major"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  add a "gc.ops" (float_of_int ops);
  r

(* Charge one traced operation: [layers] are the self times the
   decomposition attributes; the rest of its end to end is unattributed. *)
let charge a ~e2e layers =
  List.iter (fun (k, v) -> add a k v) layers;
  add a "ops" 1.0;
  add a "e2e" e2e;
  add a "unattributed"
    (e2e -. List.fold_left (fun s (_, v) -> s +. v) 0.0 layers);
  a.traced <- e2e :: a.traced

(* every metric of [names]: measured ones from [extra], the rest from the
   sums *)
let report a extra =
  let ops = Float.max 1.0 (get a "ops") and e2e = get a "e2e" in
  let per k = get a k /. ops in
  let share k = if e2e > 0.0 then get a k /. e2e else 0.0 in
  let ratio k d = if get a d > 0.0 then get a k /. get a d else 0.0 in
  let overhead =
    match (a.traced, a.untraced) with
    | _ :: _, _ :: _ ->
        median (Array.of_list a.traced) /. median (Array.of_list a.untraced)
    | _ -> 0.0
  in
  let computed =
    [ ("json.request_parse_us", per "json.request_parse" *. 1e6);
      ("json.response_parse_us", per "json.response_parse" *. 1e6);
      ("netcache.lookup_us", per "netcache" *. 1e6);
      ("netlist.fingerprint_us", per "netlist.fingerprint" *. 1e6);
      ("netlist.fingerprint_walks_per_op", per "walks");
      ("symbolic.attempt_ms", ratio "symbolic.try" "symbolic.tries" *. 1e3);
      ("symbolic.trips_per_op", per "trips");
      ("symbolic.share", share "symbolic");
      ("mc.ms_per_op", per "mc" *. 1e3);
      ("mc.cycles_per_op", per "mc.cycles");
      ("mc.ns_per_cycle", ratio "mc" "mc.cycles" *. 1e9);
      ("mc.share", share "mc");
      ("kernel.ns_per_cycle", ratio "kernel" "cycles" *. 1e9);
      ("kernel.share", share "kernel");
      ("parsim.pack_ns_per_cycle", ratio "parsim.pack" "cycles" *. 1e9);
      ("journal.checkpoint_ms_per_job", per "journal.checkpoint" *. 1e3);
      ("journal.result_write_ms", per "journal.result_write" *. 1e3);
      ( "journal.share",
        share "journal.checkpoint" +. share "journal.result_write" );
      ("gc.minor_mwords_per_op", ratio "gc.minor" "gc.ops" /. 1e6);
      ("gc.promoted_mwords_per_op", ratio "gc.promoted" "gc.ops" /. 1e6);
      ("gc.major_collections_per_op", ratio "gc.major" "gc.ops");
      ("unattributed_share", share "unattributed");
      ("trace.overhead", overhead) ]
  in
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt name computed)
      in
      (name, v, unit_))
    names

(* --- daemon workloads --- *)

type daemon_workload = {
  setup : ((string * int) * string) list;
      (** warm-up or cache-fill requests, with their circuits *)
  next : unit -> (string * int) * string;  (** the next measured request *)
  block : int;  (** operations per traced or untraced block *)
}

let cold_mc ~seed () =
  let i = ref 0 in
  { setup =
      List.init W.cold_warmup (fun j ->
          (W.cold_circuit, W.cold_warmup_request ~seed j));
    next =
      (fun () ->
        let q = W.cold_request ~seed !i in
        incr i;
        (W.cold_circuit, q));
    block = 20 }

let warm_zipf ~seed () =
  let keys = W.zipf_requests ~seed and z = W.zipf_seq ~seed in
  { setup =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun c row ->
                Array.to_list (Array.map (fun q -> (W.zipf_circuits.(c), q)) row))
              keys));
    next =
      (fun () ->
        let c, k = W.zipf_next z in
        (W.zipf_circuits.(c), keys.(c).(k)));
    block = 500 }

let result_field r k conv =
  Option.bind r.S.result (fun j -> Option.bind (J.member k j) conv)

(* hits, misses, evictions and coalesced joins of the daemon's estimate
   cache, from its metrics op *)
let estimate_counters raw =
  let cache =
    Option.bind (Result.to_option (S.parse_response raw)) (fun r ->
        Option.bind (result_field r "caches" Option.some) (J.member "server.estimates"))
  in
  let f k =
    Option.value ~default:0.0
      (Option.bind (Option.bind cache (J.member k)) J.to_float_opt)
  in
  [| f "hits"; f "misses"; f "evictions"; f "coalesced" |]

(* Against a real daemon: ping round trip, request latency, frame bytes,
   and the estimate cache's counters over the measured requests. Returns
   the median latency, the daemon's default engine, and the metrics. *)
let daemon_phase ~socket ~seconds wl =
  let d = Daemon.start ~socket in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let engine = ref Engine.Bitparallel in
  List.iter
    (fun (_, q) ->
      match S.parse_response (Daemon.request d q) with
      | Ok r when r.S.ok ->
          Option.iter
            (fun e -> engine := e)
            (Option.bind (result_field r "engine" J.to_str_opt) Engine.of_string)
      | _ -> failwith "daemon set-up request failed")
    wl.setup;
  let before =
    estimate_counters (Daemon.request d (S.metrics_request ~rid:"m0" ()))
  in
  let ping = S.ping_request ~rid:"ping" () in
  let pings =
    Array.init 200 (fun _ -> snd (timed (fun () -> Daemon.request d ping)))
  in
  let lat = ref [] and bytes = ref 0 in
  let t0 = now_ns () in
  while since t0 < seconds || !lat = [] do
    let _, q = wl.next () in
    let resp, t = timed (fun () -> Daemon.request d q) in
    lat := t :: !lat;
    bytes := !bytes + String.length q + String.length resp + 16
  done;
  let after =
    estimate_counters (Daemon.request d (S.metrics_request ~rid:"m1" ()))
  in
  let delta i = after.(i) -. before.(i) in
  let lookups = delta 0 +. delta 1 in
  ( median (Array.of_list !lat),
    !engine,
    [ ("server.ping_rtt_us", median pings *. 1e6);
      ( "server.bytes_per_op",
        float_of_int !bytes /. float_of_int (List.length !lat) );
      ( "netcache.estimates.hit_ratio",
        if lookups > 0.0 then delta 0 /. lookups else 0.0 );
      ("netcache.estimates.evictions", delta 2);
      ("netcache.estimates.coalesced", delta 3) ] )

(* The benchmark's mirrors of the service's netlist and estimate caches,
   so the decomposition hits and misses where the service does. *)
type mirror = {
  nets : Netlist.t Netcache.t;
  estimates : (float * int) Netcache.t;
      (** decomposed capacitance and Monte Carlo cycles *)
  engine : Engine.t;  (** the daemon's default *)
}

let net_key (circuit, width) =
  Netcache.combine (Netcache.hash_string circuit) (Int64.of_int width)

(* One estimate request, decomposed into the layer calls Service.handle
   makes, in its order. [walks]: the service walks the netlist for its
   fingerprint because the previous request named another one; when it
   does not, the timed call must be a memo hit too. *)
let decompose m ~walks q =
  let sp = Spans.on.span in
  let req =
    match sp "json.request_parse" (fun () -> J.parse q) with
    | Ok r -> r
    | Error e -> failwith e
  in
  let str k = Option.bind (J.member k req) J.to_str_opt in
  let int k = Option.bind (J.member k req) J.to_int_opt in
  let circuit = Option.value ~default:"" (str "circuit") in
  let width = Option.value ~default:8 (int "width") in
  let seed = Option.value ~default:47 (int "seed") in
  let rp =
    Option.value ~default:0.05
      (Option.bind (J.member "relative_precision" req) J.to_float_opt)
  in
  let max_cycles = int "max_cycles" and node_limit = int "node_limit" in
  let engine =
    Option.value ~default:m.engine (Option.bind (str "engine") Engine.of_string)
  in
  let net =
    sp "netcache" (fun () ->
        Netcache.find_or_compute m.nets ~key:(net_key (circuit, width))
          (fun () -> W.generator circuit width))
  in
  if not walks then ignore (Netlist.fingerprint net);
  let fp = sp "netlist.fingerprint" (fun () -> Netlist.fingerprint net) in
  let key =
    List.fold_left Netcache.combine fp
      [ Netcache.hash_string (Engine.to_string engine);
        Int64.of_int seed;
        Int64.bits_of_float rp;
        Int64.of_int (Option.value ~default:0 max_cycles);
        Int64.of_int (Option.value ~default:0 node_limit) ]
  in
  sp "netcache" (fun () ->
      Netcache.find_or_compute_outcome m.estimates ~key (fun () ->
          let node_limit =
            Option.value ~default:P.default_node_limit node_limit
          in
          match
            sp "symbolic" (fun () ->
                match P.symbolic ~node_limit net with
                | stats -> Some (P.estimate_capacitance net stats)
                | exception
                    Hlp_util.Err.Error (Hlp_util.Err.Budget_exceeded _) ->
                    None)
          with
          | Some cap -> (cap, 0)
          | None ->
              let mc =
                sp "mc" (fun () ->
                    P.monte_carlo ~seed ~engine ~relative_precision:rp
                      ?max_cycles net)
              in
              (mc.P.estimate, mc.P.cycles_used)))

(* Service.handle between real frames on a socketpair: the daemon's read,
   handle and write, and the client's read and decode *)
let pipeline (t : Spans.tracer) svc (a, b) q =
  t.span "e2e" (fun () ->
      let req =
        t.span "server.frames" (fun () ->
            Srv.write_frame a q;
            Option.get (Srv.read_frame b))
      in
      let ctx =
        { Srv.guard = Hlp_util.Guard.create ();
          rid = Srv.fresh_rid ();
          op = "";
          key = "";
          cache = "";
          status = "ok" }
      in
      let resp = t.span "service.handle" (fun () -> S.handle svc ctx req) in
      let raw =
        t.span "server.frames" (fun () ->
            Srv.write_frame b resp;
            Option.get (Srv.read_frame a))
      in
      t.span "json.response_parse" (fun () -> S.parse_response raw))

(* the in-process replay; returns its measured metrics and the median
   Service.handle time *)
let in_process ~seconds ~engine a tally wl =
  (* a serving daemon always records telemetry *)
  Hlp_util.Telemetry.enable ();
  let svc = S.create () in
  let fds = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close (fst fds);
      Unix.close (snd fds))
  @@ fun () ->
  let m =
    { nets = Netcache.create ~capacity:64 ~name:"perfbench.netlists" ();
      estimates = Netcache.create ~capacity:256 ~name:"perfbench.estimates" ();
      engine }
  in
  (* the generator's cost, which a netlist-cache miss pays *)
  let builds =
    List.map
      (fun (circuit, width) ->
        let t =
          median
            (Array.init 3 (fun _ ->
                 snd (timed (fun () -> W.generator circuit width))))
        in
        Netcache.put m.nets ~key:(net_key (circuit, width))
          (W.generator circuit width);
        t)
      (List.sort_uniq compare (List.map fst wl.setup))
  in
  let check ?decomposed resp =
    let ok =
      match (resp, decomposed) with
      | Ok r, None -> r.S.ok
      | Ok r, Some (cap, hit) ->
          r.S.ok && r.S.cached = hit
          && result_field r "capacitance_bits" J.to_str_opt = Some (fbits cap)
      | Error _, _ -> false
    in
    record tally ok (fun () -> "a served answer differs from its decomposition")
  in
  (* the circuit of the service's previous request *)
  let last = ref None in
  List.iter
    (fun (circuit, q) ->
      let (cap, _), outcome = decompose m ~walks:(!last <> Some circuit) q in
      ignore (Spans.take ());
      check ~decomposed:(cap, outcome = `Hit) (pipeline Spans.off svc fds q);
      last := Some circuit)
    wl.setup;
  let prime = ref (snd (List.nth wl.setup (List.length wl.setup - 1))) in
  let handles = ref [] in
  let t0 = now_ns () and k = ref 0 in
  while since t0 < seconds || !k < 2 do
    let ops = Array.init wl.block (fun _ -> wl.next ()) in
    if !k mod 2 = 0 then
      with_gc a ~ops:wl.block (fun () ->
          Array.iter
            (fun (circuit, q) ->
              let resp, t = timed (fun () -> pipeline Spans.off svc fds q) in
              a.untraced <- t :: a.untraced;
              check resp;
              last := Some circuit)
            ops)
    else begin
      (* Decompose the whole block first: the service memoizes the last
         netlist it fingerprinted, so it must see only its own netlists
         while it serves the block. A hit on the previous request re-primes
         that memo. *)
      let decomposed =
        Array.map
          (fun (circuit, q) ->
            let walks = !last <> Some circuit in
            last := Some circuit;
            let d = decompose m ~walks q in
            (walks, d, Spans.take ()))
          ops
      in
      ignore (pipeline Spans.off svc fds !prime);
      Array.iteri
        (fun j (_, q) ->
          let resp = pipeline Spans.on svc fds q in
          let o = Spans.take () in
          let walks, ((cap, cycles), outcome), dec = decomposed.(j) in
          let hit = outcome = `Hit in
          check ~decomposed:(cap, hit) resp;
          let r = Result.to_option resp in
          let tripped =
            (not hit)
            && Option.bind r (fun r ->
                   result_field r "symbolic_fallback" (function
                     | J.Bool b -> Some b
                     | _ -> None))
               = Some true
          in
          let estimator =
            Option.bind r (fun r -> result_field r "estimator" J.to_str_opt)
          in
          let attempted = tripped || ((not hit) && estimator = Some "symbolic") in
          let sampled = (not hit) && estimator = Some "monte_carlo" in
          charge a ~e2e:(Spans.total o "e2e")
            [ ("json.request_parse", Spans.self dec "json.request_parse");
              ("json.response_parse", Spans.self o "json.response_parse");
              ("netcache", Spans.self dec "netcache");
              ("netlist.fingerprint", Spans.self dec "netlist.fingerprint");
              ("server.frames", Spans.self o "server.frames");
              ("symbolic", if attempted then Spans.self dec "symbolic" else 0.0);
              ("mc", if sampled then Spans.self dec "mc" else 0.0) ];
          if walks then add a "walks" 1.0;
          if tripped then add a "trips" 1.0;
          if Spans.total dec "symbolic" > 0.0 then begin
            add a "symbolic.try" (Spans.self dec "symbolic");
            add a "symbolic.tries" 1.0
          end;
          if sampled then add a "mc.cycles" (float_of_int cycles);
          handles := Spans.total o "service.handle" :: !handles)
        ops
    end;
    prime := snd ops.(wl.block - 1);
    incr k
  done;
  let handles = Array.of_list !handles in
  ( [ ("netlist.build_us", mean (Array.of_list builds) *. 1e6);
      ("service.handle_us", mean handles *. 1e6) ],
    median handles )

let daemon ~dir ~seconds mk =
  let a = acc () and tally = tally () in
  let socket = Filename.concat dir "s.sock" in
  let e2e_p50, engine, measured =
    daemon_phase ~socket ~seconds:(0.3 *. seconds) (mk ())
  in
  let extra, handle_p50 =
    in_process ~seconds:(0.7 *. seconds) ~engine a tally (mk ())
  in
  ( report a
      ((("service.transport_us", (e2e_p50 -. handle_p50) *. 1e6) :: extra)
      @ measured),
    tally )

(* --- batch-campaign --- *)

(* A finished job's checkpoint appends, replayed with its own records at
   the checkpoint's group-commit cadence: a sync every 16 records after
   the header, and one at close. *)
let replay_journal ~src ~dst =
  let records = (Hlp_util.Journal.recover src).Hlp_util.Journal.records in
  Spans.on.span "journal.checkpoint" (fun () ->
      let j, _ = Hlp_util.Journal.open_ dst in
      List.iteri
        (fun k r ->
          Hlp_util.Journal.append j r;
          if k > 0 && k mod 16 = 0 then Hlp_util.Journal.sync j)
        records;
      Hlp_util.Journal.close j)

(* One traced job: the layers estimate_guarded runs, called directly
   first, then the job itself, then its journal appends replayed. *)
let traced_job ~cdir (job : W.job) body =
  let sp = Spans.on.span in
  let sym =
    sp "symbolic" (fun () ->
        match P.symbolic ~node_limit:W.batch_node_limit job.net with
        | stats -> Some (P.estimate_capacitance job.net stats)
        | exception Hlp_util.Err.Error (Hlp_util.Err.Budget_exceeded _) -> None)
  in
  let mc =
    match sym with
    | Some _ -> None
    | None ->
        Some
          (sp "mc" (fun () ->
               P.monte_carlo ~seed:job.seed ~engine:Engine.Bitparallel
                 ~relative_precision:W.unreachable_precision
                 ~max_cycles:W.batch_max_cycles job.net))
  in
  let g = sp "e2e" body in
  if Option.is_some mc then begin
    (* the checkpoint header's fingerprint walk, on a netlist of its own *)
    let fresh = W.generator job.circuit job.width in
    ignore (sp "netlist.fingerprint" (fun () -> Netlist.fingerprint fresh));
    replay_journal
      ~src:(Batch.journal_path cdir job)
      ~dst:(Filename.concat cdir "replayed.journal")
  end;
  let decomposed =
    match (sym, mc) with
    | Some c, _ -> (c, 0)
    | None, Some m -> (m.P.estimate, m.P.cycles_used)
    | None, None -> (nan, 0)
  in
  (g, decomposed, Spans.take ())

let batch ~dir ~seed ~seconds =
  let a = acc () and tally = tally () in
  let waits = ref [] and opens = ref 0 in
  let t0 = now_ns () and r = ref 0 in
  while since t0 < seconds || !r < 2 do
    let jobs = W.campaign ~seed ~jobs:W.campaign_jobs !r in
    let cdir = Filename.concat dir (Printf.sprintf "c%d" !r) in
    let c =
      if !r mod 2 = 0 then begin
        let c =
          with_gc a ~ops:(Array.length jobs) (fun () ->
              Batch.run Spans.off ~dir:cdir jobs)
        in
        a.untraced <- Array.to_list c.Batch.latency @ a.untraced;
        waits := Array.to_list c.Batch.waits @ !waits;
        c
      end
      else begin
        let decomposed = Array.make (Array.length jobs) None in
        let wrap i body =
          let g, d, o = traced_job ~cdir jobs.(i) body in
          decomposed.(i) <- Some (d, o);
          g
        in
        let c = Batch.run ~wrap Spans.on ~dir:cdir jobs in
        Array.iteri
          (fun i d ->
            match (d, c.Batch.results.(i)) with
            | Some ((cap, cycles), o), Ok g ->
                record tally
                  (fbits cap = fbits g.P.capacitance)
                  (fun () -> jobs.(i).W.name ^ ": decomposed capacitance differs");
                charge a ~e2e:(Spans.total o "e2e")
                  (List.map
                     (fun k -> (k, Spans.self o k))
                     [ "symbolic"; "mc"; "netlist.fingerprint";
                       "journal.checkpoint"; "journal.result_write" ]);
                add a "symbolic.try" (Spans.self o "symbolic");
                add a "symbolic.tries" 1.0;
                if cycles > 0 then begin
                  add a "trips" 1.0;
                  add a "walks" 1.0;
                  add a "mc.cycles" (float_of_int cycles)
                end
            | _ -> ())
          decomposed;
        c
      end
    in
    Array.iter
      (fun (ok, why) -> record tally ok (fun () -> why))
      (Batch.verdicts ~dir:cdir jobs c);
    if c.Batch.breaker_opened then incr opens;
    rm_rf cdir;
    incr r
  done;
  ( report a
      [ ("supervisor.queue_wait_ms", mean (Array.of_list !waits) *. 1e3);
        ("supervisor.breaker_opens", float_of_int !opens) ],
    tally )

(* --- replay-lowact --- *)

(* Parsim's chunk protocol for the compiled kernel: 63 consecutive cycles
   per chunk, packed as a warm-up settle and a counted step *)
let pack ~nin ~n trace =
  let vector i = Array.init nin (fun b -> Hlp_util.Bits.bit trace.(i) b) in
  let lanes = Kernel.lanes in
  Array.init ((n + lanes - 1) / lanes) (fun c ->
      let lo = c * lanes in
      let vecs =
        Array.init (lanes + 1) (fun j -> vector (min (lo + j) (n - 1)))
      in
      let warm = Hlp_sim.Bitsim.pack_lanes (Array.sub vecs 0 lanes) in
      let last = vecs.(lanes) in
      let next =
        Array.mapi
          (fun k w -> (w lsr 1) lor if last.(k) then 1 lsl (lanes - 1) else 0)
          warm
      in
      (lo, warm, next))

(* the kernel's steps over packed chunks: per-transition capacitances *)
let kernel_caps net ~n chunks =
  let sim = Kernel.create ~track_lanes:true (Kernel.of_netlist net) in
  Array.concat
    (Array.to_list
       (Array.map
          (fun (lo, warm, next) ->
            Kernel.set_counting sim false;
            Kernel.step sim warm;
            Kernel.reset_counters sim;
            Kernel.set_counting sim true;
            Kernel.step sim next;
            Array.sub
              (Kernel.lane_switched_capacitance sim)
              0
              (max 0 (min (min Kernel.lanes (n - lo)) (n - 1 - lo))))
          chunks))

let replay ~seed ~seconds =
  let a = acc () and tally = tally () in
  let circuit, width = W.replay_circuit in
  let net = W.generator circuit width in
  let nin = Array.length net.Netlist.inputs and n = W.replay_cycles in
  let compile =
    median (Array.init 3 (fun _ -> snd (timed (fun () -> Kernel.compile net))))
  in
  ignore (Kernel.of_netlist net);
  let block = 20 in
  let t0 = now_ns () and k = ref 0 and i = ref 0 in
  let next () =
    incr i;
    W.replay_trace ~seed ~nin !i
  in
  while since t0 < seconds || !k < 2 do
    let traces = Array.init block (fun _ -> next ()) in
    if !k mod 2 = 0 then
      with_gc a ~ops:block (fun () ->
          Array.iter
            (fun tr ->
              let o, t = timed (fun () -> W.replay net tr) in
              a.untraced <- t :: a.untraced;
              record tally (Result.is_ok o) (fun () ->
                  "replay-lowact: replay failed"))
            traces)
    else
      Array.iter
        (fun tr ->
          let sp = Spans.on.span in
          let chunks = sp "parsim.pack" (fun () -> pack ~nin ~n tr) in
          let caps = sp "kernel" (fun () -> kernel_caps net ~n chunks) in
          let o = sp "e2e" (fun () -> W.replay net tr) in
          let spans = Spans.take () in
          let same =
            match o with
            | Ok d ->
                let served =
                  d.Hlp_sim.Parsim.value.Hlp_sim.Parsim.transition_caps
                in
                Array.length caps = Array.length served
                && Array.for_all2
                     (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                     caps served
            | Error _ -> false
          in
          record tally same (fun () ->
              "replay-lowact: decomposed capacitances differ");
          charge a ~e2e:(Spans.total spans "e2e")
            [ ("parsim.pack", Spans.self spans "parsim.pack");
              ("kernel", Spans.self spans "kernel") ];
          add a "cycles" (float_of_int n))
        traces;
    incr k
  done;
  (report a [ ("kernel.compile_ms", compile *. 1e3) ], tally)

let run workload ~dir ~seed ~seconds =
  match workload with
  | "cold-mc" -> daemon ~dir ~seconds (cold_mc ~seed)
  | "warm-zipf" -> daemon ~dir ~seconds (warm_zipf ~seed)
  | "batch-campaign" -> batch ~dir ~seed ~seconds
  | _ -> replay ~seed ~seconds
