(* Timing, order statistics, process memory, the machine description,
   answer digests and the scratch directory, shared by every workload. *)

module J = Hlp_util.Json

let now_ns = Hlp_util.Clock.monotonic_ns

(* seconds since [t0], a [now_ns] reading *)
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* linear interpolation between closest ranks, [p] in [0, 1] *)
let quantile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = min (n - 1) (int_of_float x) in
    if i = n - 1 then s.(i)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (its default exclusive method), the rule steadiness is
   judged by. Needs at least two values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* --- procfs --- *)

let lines path =
  try In_channel.with_open_text path In_channel.input_lines
  with Sys_error _ -> []

(* the text after the ':' of the first line of [path] starting with [key] *)
let field path key =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:key l then
        Option.map
          (fun i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          (String.index_opt l ':')
      else None)
    (lines path)

(* peak resident set (VmHWM) of process [pid], "self" or a number, in MiB *)
let rss_peak_mb pid =
  match field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM for process " ^ pid)

(* --- CPU placement --- *)

external pin_thread : int -> int -> bool = "perfbench_pin_thread" [@@noalloc]

(* The CPUs this process may run on, read before it first pins itself:
   procfs lists them as ranges, "0-1" or "0,2-3". *)
let allowed_cpus =
  lazy
    (match field "/proc/self/status" "Cpus_allowed_list" with
    | None -> [||]
    | Some l ->
        Array.of_list
          (List.concat_map
             (fun r ->
               match List.map int_of_string (String.split_on_char '-' r) with
               | [ a ] -> [ a ]
               | [ a; b ] -> List.init (b - a + 1) (( + ) a)
               | _ -> [])
             (String.split_on_char ',' l)))

(* every thread of process [proc], "self" or a pid, onto [cpu] *)
let pin proc cpu =
  match Sys.readdir (Printf.sprintf "/proc/%s/task" proc) with
  | tids -> Array.iter (fun t -> ignore (pin_thread (int_of_string t) cpu)) tids
  | exception Sys_error _ -> ()

(* The benchmark and process [proc] onto the [i]th allowed CPU, cycling.
   Threads and daemons started later inherit the placement. *)
let place i proc =
  let cpus = Lazy.force allowed_cpus in
  if Array.length cpus > 0 then begin
    let cpu = cpus.(i mod Array.length cpus) in
    pin "self" cpu;
    if proc <> "self" then pin proc cpu
  end

(* Absolute numbers are only comparable on a described machine. *)
let machine () =
  [ ("nproc", J.Int (Domain.recommended_domain_count ()));
    ( "cpu",
      J.Str (Option.value ~default:"unknown" (field "/proc/cpuinfo" "model name"))
    );
    ("ocaml", J.Str Sys.ocaml_version);
    ( "kernel",
      J.Str
        (match lines "/proc/sys/kernel/osrelease" with
        | l :: _ -> l
        | [] -> "unknown") ) ]

(* --- answers --- *)

let fbits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* The answers of a run's first operations, in order. One seed gives one
   operation sequence, so equal digests mean equal answers across runs
   and across commits: a speed-up must leave them unchanged. *)
type digest = { buf : Buffer.t; mutable n : int }

let digest_limit = 100
let digest () = { buf = Buffer.create 4096; n = 0 }

let add d answer =
  if d.n < digest_limit then begin
    Buffer.add_string d.buf (answer ());
    Buffer.add_char d.buf '\n';
    d.n <- d.n + 1
  end

let digest_hex d =
  Printf.sprintf "%s over %d answers"
    (Digest.to_hex (Digest.string (Buffer.contents d.buf)))
    d.n

(* Operations attempted and failed: typed errors and failed output checks
   alike. The first failure is kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable why : string option;
}

let tally () = { attempted = 0; failed = 0; why = None }

let record t ok why =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.why = None then t.why <- Some (why ())
  end

(* --- measurement --- *)

type e2e = {
  ops : int;
  wall_s : float;  (** measured time, summed over rounds *)
  ops_per_s : float;
  p50_ms : float;
  p90_ms : float;
  rss_mb : float;
}

(* Peak RSS is read at the start of the first round after this many
   operations (or at the end of a shorter run): a fixed operation count,
   because the daemon's resident set grows with the requests it has
   served, and a faster run serves more. *)
let rss_ops = 800

(* Whole rounds of operations until [seconds] have passed, and at least
   three. [round r] prepares and checks round [r] untimed and returns each
   operation's latency and the round's measured wall time, in seconds.
   [proc ()] names the process doing the work, "self" or a daemon's pid;
   its peak RSS is read.

   Each vCPU of the 2-vCPU host this was tuned on runs at one of two
   speeds, 1.4x apart, switching every 0.5 to 25 s independently of the
   other (a fixed loop timed on each in turn for 150 s), and one vCPU
   stayed slow through a whole 25 s run. So the rounds take the allowed
   CPUs in turn, the benchmark and [proc] pinned together, and the figures
   come from the fastest fifth of the rounds by throughput, pooled: their
   operations per second of their wall time, and the percentiles of their
   latencies. Outside load only adds time, so the fastest rounds measure
   the program at the machine's full speed, while a change that slows
   every round still moves them. The next fastest rounds join until the
   pool holds 100 operations, so that its p90 has ten samples beyond it. *)
let fastest_share = 0.2

let rounds ~seconds ~proc round =
  let t0 = now_ns () in
  let per = ref [] and ops = ref 0 and wall = ref 0.0 and r = ref 0 in
  let rss_mb = ref None in
  while since t0 < seconds || !r < 3 do
    if !rss_mb = None && !ops >= rss_ops then
      rss_mb := Some (rss_peak_mb (proc ()));
    place !r (proc ());
    let lat, w = round !r in
    per := (float_of_int (Array.length lat) /. w, lat, w) :: !per;
    ops := !ops + Array.length lat;
    wall := !wall +. w;
    incr r
  done;
  let by_speed =
    List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) !per
  in
  let k = int_of_float (Float.ceil (fastest_share *. float_of_int !r)) in
  let rec take i n = function
    | ((_, l, _) as x) :: rest when i < k || n < 100 ->
        x :: take (i + 1) (n + Array.length l) rest
    | _ -> []
  in
  let keep = take 0 0 by_speed in
  let lat = Array.concat (List.map (fun (_, l, _) -> l) keep) in
  let w = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 keep in
  { ops = !ops;
    wall_s = !wall;
    ops_per_s = float_of_int (Array.length lat) /. w;
    p50_ms = quantile lat 0.5 *. 1e3;
    p90_ms = quantile lat 0.9 *. 1e3;
    rss_mb =
      (match !rss_mb with Some m -> m | None -> rss_peak_mb (proc ())) }

(* Run [setup] [n] times, each on the next allowed CPU, and keep the last
   result, releasing the others; set-up time is the median, so one slow
   start or one slow vCPU does not move a run. *)
let setups n setup release =
  let times = Array.make n 0.0 in
  let rec go i =
    place i "self";
    let x, t = timed setup in
    times.(i) <- t;
    if i = n - 1 then x
    else begin
      release x;
      go (i + 1)
    end
  in
  let x = go 0 in
  (x, median times)

(* --- scratch directory --- *)

(* Sockets, checkpoint journals and result files go under [.perfbench/]
   in the working directory, the root of the source tree. *)
let work_root = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let work_dir () =
  mkdir work_root;
  let d = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  rm_rf d;
  mkdir d;
  d

let remove_work_dir d =
  rm_rf d;
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()
