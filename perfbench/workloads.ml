(* The four workloads' inputs, generated from the workload seed alone: one
   seed gives one operation sequence, and hlpower receives only the
   generated requests, jobs and traces. Each workload keeps its operations
   in one cost class; where two classes are inherent (warm-zipf,
   batch-campaign), the mix puts p50 inside one and p90 inside the other. *)

module S = Hlp_power.Service
module Prng = Hlp_util.Prng

let names = [ "cold-mc"; "warm-zipf"; "batch-campaign"; "replay-lowact" ]
let generator circuit = List.assoc circuit S.circuits

(* Estimates run a fixed Monte Carlo budget: no run reaches this precision,
   so [max_cycles] is the stopping rule and every estimate of a circuit
   simulates the same number of cycles. The tiny BDD budget trips a
   symbolic attempt in microseconds. *)
let unreachable_precision = 1e-6
let tiny_node_limit = 64

(* --- cold-mc: distinct-seed estimates of one mid-size circuit --- *)

let cold_circuit = ("multiplier", 8)
let cold_max_cycles = 40_000
let cold_round = 100
let cold_warmup = 30

(* The engine is omitted, so the daemon's default applies. Estimate seeds
   are distinct across operations and workload seeds; warm-up operations
   draw from a range of their own. *)
let cold_request ~seed i =
  let circuit, width = cold_circuit in
  S.estimate_request ~id:i ~rid:(Printf.sprintf "cm%d" i)
    ~seed:((seed * 1_000_000) + i) ~relative_precision:unreachable_precision
    ~max_cycles:cold_max_cycles ~node_limit:tiny_node_limit ~circuit ~width ()

let cold_warmup_request ~seed j = cold_request ~seed (900_000 + j)

(* --- warm-zipf: cache hits on Zipf-popular keys of four circuits --- *)

let zipf_circuits =
  [| ("multiplier", 8); ("alu", 8); ("adder", 16); ("comparator", 16) |]

(* 4 x 48 keys stay under the daemon's 256-entry estimate cache *)
let zipf_keys = 48
let zipf_max_cycles = 10_000
let zipf_round = 1000

(* One request in five moves to another circuit. A move pays a netlist
   fingerprint walk, so p90 falls inside the moving requests and p50
   inside the staying ones. *)
let zipf_switch = 0.2

let zipf_request ~seed c k =
  let circuit, width = zipf_circuits.(c) in
  S.estimate_request
    ~id:((c * zipf_keys) + k)
    ~rid:(Printf.sprintf "wz%d-%d" c k)
    ~seed:((seed * 1000) + k) ~relative_precision:unreachable_precision
    ~max_cycles:zipf_max_cycles ~node_limit:tiny_node_limit ~circuit ~width ()

(* every key's request, indexed [circuit][seed rank] *)
let zipf_requests ~seed =
  Array.init (Array.length zipf_circuits) (fun c ->
      Array.init zipf_keys (zipf_request ~seed c))

(* weights 1/(rank+1) *)
let zipf n = Array.init n (fun k -> 1.0 /. float_of_int (k + 1))
let key_weights = zipf zipf_keys

let pick rng w =
  let x = Prng.float rng (Array.fold_left ( +. ) 0.0 w) in
  let rec go i acc =
    let acc = acc +. w.(i) in
    if x < acc || i = Array.length w - 1 then i else go (i + 1) acc
  in
  go 0 0.0

(* The key sequence: stay on the current circuit or, with probability
   [zipf_switch], move to another by Zipf popularity; then a Zipf-popular
   seed of that circuit. *)
type zipf_seq = { rng : Prng.t; mutable circuit : int }

let zipf_seq ~seed =
  let rng = Prng.create ((seed * 7919) + 2) in
  { rng; circuit = pick rng (zipf (Array.length zipf_circuits)) }

let zipf_next z =
  if Prng.bernoulli z.rng zipf_switch then begin
    let w = zipf (Array.length zipf_circuits) in
    w.(z.circuit) <- 0.0;
    z.circuit <- pick z.rng w
  end;
  (z.circuit, pick z.rng key_weights)

(* --- batch-campaign: hlpower batch's supervised campaign --- *)

type job = {
  name : string;
  circuit : string;
  width : int;
  seed : int;
  doomed : bool;  (** its BDD trips [batch_node_limit] *)
  net : Hlp_logic.Netlist.t;
}

(* An explicit moderate BDD budget: the friendly circuits' BDDs fit in it,
   the multiplier's trips it after milliseconds of work. *)
let batch_node_limit = 20_000
let batch_max_cycles = 10_000
let friendly = [| ("adder", 8); ("comparator", 8) |]
let doomed = ("multiplier", 8)
let campaign_jobs = 30
let warmup_jobs = 12

(* Jobs run friendly, friendly, doomed: a third of them trip, so p50 falls
   among friendly jobs and p90 among doomed ones, and the breaker (three
   trips in a row) never opens. Each job has a netlist of its own, as a
   jobs file gives the batch command. *)
let campaign ~seed ~jobs r =
  Array.init jobs (fun i ->
      let doomed_job = i mod 3 = 2 in
      let circuit, width = if doomed_job then doomed else friendly.(i mod 3) in
      { name = Printf.sprintf "job%d-%s%d" i circuit width;
        circuit;
        width;
        seed = (seed * 1_000_000) + (r * 1000) + i;
        doomed = doomed_job;
        net = generator circuit width })

(* --- replay-lowact: hlpower estimate's replay stage on quiet traces --- *)

let replay_circuit = ("multiplier", 8)
let replay_cycles = 4096
let replay_round = 100
let replay_warmup = 40

(* each cycle the input vector changes with probability 0.01, so most
   63-lane chunks are quiet *)
let replay_change = 0.01

let replay_trace ~seed ~nin i =
  let rng = Prng.create ((seed * 1_000_003) + i) in
  Hlp_sim.Streams.hold rng ~change_prob:replay_change
    (Hlp_sim.Streams.uniform rng ~width:nin ~n:replay_cycles)

(* the replay stage of hlpower estimate, on one trace *)
let replay ?(engine = Hlp_sim.Engine.Compiled) net trace =
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let vector i = Array.init nin (fun b -> Hlp_util.Bits.bit trace.(i) b) in
  Hlp_sim.Parsim.replay_guarded ~engine net ~vector ~n:(Array.length trace)
