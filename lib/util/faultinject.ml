type point = Gate_eval | Trace_sample | Bdd_blowup

let point_name = function
  | Gate_eval -> "gate-eval"
  | Trace_sample -> "trace-sample"
  | Bdd_blowup -> "bdd-blowup"

let index = function
  | Gate_eval -> 0
  | Trace_sample -> 1
  | Bdd_blowup -> 2

let npoints = 3

type config = { mask : int; rate : float; seed : int }

let config = Atomic.make { mask = 0; rate = 0.0; seed = 0 }

(* draw counters are atomic so worker domains draw concurrently; each draw
   takes a unique sequence number, so the multiset of decisions depends
   only on (seed, rate, draw count), never on domain scheduling *)
let draws = Array.init npoints (fun _ -> Atomic.make 0)
let fires = Array.init npoints (fun _ -> Atomic.make 0)

let configure ?(seed = 0) ?(rate = 0.05) points =
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    raise (Err.invalid_input ~what:"Faultinject.configure: rate" "must be in [0, 1]");
  Array.iter (fun a -> Atomic.set a 0) draws;
  Array.iter (fun a -> Atomic.set a 0) fires;
  let mask = List.fold_left (fun m p -> m lor (1 lsl index p)) 0 points in
  Atomic.set config { mask; rate; seed }

let disarm () = Atomic.set config { mask = 0; rate = 0.0; seed = 0 }

let enabled () = (Atomic.get config).mask <> 0
let armed p = (Atomic.get config).mask land (1 lsl index p) <> 0

(* splitmix64 finalizer: an independent uniform decision per draw *)
let decision ~seed ~point ~n =
  let z = ref (Int64.of_int ((seed * 0x9E3779B9) lxor (point * 0x85EBCA6B) lxor n)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  Int64.to_float (Int64.shift_right_logical !z 11) *. (1.0 /. 9007199254740992.0)

let fire p =
  let c = Atomic.get config in
  c.mask land (1 lsl index p) <> 0
  &&
  let i = index p in
  let n = Atomic.fetch_and_add draws.(i) 1 in
  let hit = decision ~seed:c.seed ~point:i ~n < c.rate in
  if hit then Atomic.incr fires.(i);
  hit

let fired p = Atomic.get fires.(index p)

let injected_exn p = Failure (Printf.sprintf "fault injected: %s" (point_name p))

let trip p = if fire p then raise (injected_exn p)

let with_faults ?seed ?rate points f =
  configure ?seed ?rate points;
  Fun.protect ~finally:disarm f
