(* The bench's one gate: the A/B/A timing every overhead and ratio
   experiment shares, the table of every number a run enforces, and the
   loop that evaluates that table against the document a run builds.

   Experiments only measure. A row names a value by its JSON path in the
   run's document, says how the value is judged, and lists the runs that
   fail on it; in every other run that measured the value the row is
   written with its verdict and fails nothing. *)

open Hlp_util

(* --- interleaved A/B/A --- *)

type aba = {
  a1_s : float array;  (** first A batch, one time per rep *)
  b_s : float array;
  a2_s : float array;
  a_best_s : float;  (** best time over both A batches *)
  b_best_s : float;
  spread_pct : float;
      (** A/A: the two A batches run identical code, so their difference
          is the noise floor of the measurement *)
  diff_pct : float;  (** B against the best A *)
}

(* monotonic: an NTP step mid-benchmark must not fabricate a speedup *)
let time f =
  let t0 = Clock.now_s () in
  f ();
  Clock.now_s () -. t0

(* One untimed warm-up of each side, then [reps] rounds of (A, B, A), each
   side judged by its best rep; A runs last. A side that switches a mode
   (telemetry or tracing on or off) does so inside its thunk: an atomic
   store, nothing next to a replay. *)
let aba ~reps ~a ~b =
  a ();
  b ();
  let a1_s = Array.make reps 0.0 in
  let b_s = Array.make reps 0.0 in
  let a2_s = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    a1_s.(i) <- time a;
    b_s.(i) <- time b;
    a2_s.(i) <- time a
  done;
  let best = Array.fold_left min infinity in
  let a1 = best a1_s and a2 = best a2_s and b_best_s = best b_s in
  let a_best_s = min a1 a2 in
  { a1_s; b_s; a2_s; a_best_s; b_best_s;
    spread_pct = abs_float (a2 -. a1) /. a1 *. 100.0;
    diff_pct = (b_best_s -. a_best_s) /. a_best_s *. 100.0 }

let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))

(* the five JSON fields of one measurement, under the experiment's names *)
let aba_fields ~a1 ~b ~a2 ~spread ~diff m =
  [ (a1, floats m.a1_s); (b, floats m.b_s); (a2, floats m.a2_s);
    (spread, Json.Float m.spread_pct); (diff, Json.Float m.diff_pct) ]

(* --- the table --- *)

type run = Engines | Smoke | Regression | Chaos | Flight | Lifecycle

(* in the order main.exe tries the flags *)
let every = [ Smoke; Engines; Chaos; Flight; Lifecycle; Regression ]

type kind =
  | Floor of float  (** value >= x *)
  | Band of float
      (** value at most this fraction below the committed snapshot's value
          at the same path *)
  | Budget of float * string
      (** overhead in percent against a budget, judged with the A/A spread
          at the named path *)
  | Contract of Json.t  (** value equals this *)

type row = { path : string; kind : kind; enforced : run list }

(* A path is dot-separated keys; [key[field=v]] picks the element of the
   list at [key] whose [field] prints as [v]. *)
let rows =
  let row ?(enforced = every) path kind = { path; kind; enforced } in
  let budget = 2.0 in
  [ (* E33 *)
    row "engines[engine=bitparallel].speedup_vs_scalar" (Floor 20.0)
      ~enforced:[ Engines ];
    row "engines[engine=bitparallel].speedup_vs_scalar" (Band 0.25)
      ~enforced:[ Regression ];
    (* telemetry, E35, E34, E36: no measurement here resolves 2% yet *)
    row "telemetry_overhead.disabled_overhead_pct"
      (Budget (budget, "telemetry_overhead.disabled_overhead_pct"))
      ~enforced:[];
    row "tracing.disabled_overhead_pct"
      (Budget (budget, "tracing.disabled_overhead_pct"))
      ~enforced:[];
    row "robustness.guarded_overhead_pct"
      (Budget (budget, "robustness.raw_spread_pct"))
      ~enforced:[];
    row "durability.journaled_overhead_pct"
      (Budget (budget, "durability.unjournaled_spread_pct"))
      ~enforced:[];
    row "durability.estimate_bit_identical" (Contract (Json.Bool true));
    (* E38 *)
    row "kernel.compiled_vs_bitparallel" (Floor 3.0) ~enforced:[ Engines ];
    row "kernel.amortization[replays=10].speedup_vs_bitparallel" (Floor 3.0)
      ~enforced:[ Engines ];
    row "kernel.compiled_vs_bitparallel" (Band 0.25) ~enforced:[ Regression ];
    (* E39 *)
    row "serve.cold_vs_warm_p50" (Floor 10.0) ~enforced:[ Engines; Regression ];
    row "serve.byte_identical" (Contract (Json.Bool true));
    row "serve.overload_typed_sheds" (Contract (Json.Int 1));
    (* E40 *)
    row "resilience.availability_pct" (Floor 99.0);
    row "resilience.corrupt" (Contract (Json.Int 0));
    row "resilience.untyped" (Contract (Json.Int 0));
    row "resilience.coalescing.computations" (Contract (Json.Int 1));
    row "resilience.coalescing.coalesced"
      (Contract (Json.Int (Exp_chaos.herd_clients - 1)));
    (* E41 *)
    row "flight.enabled_overhead_pct"
      (Budget (budget, "flight.disabled_spread_pct"))
      ~enforced:[ Engines ];
    row "flight.rids_unique" (Contract (Json.Bool true));
    row "flight.slow_request_in_log" (Contract (Json.Bool true));
    row "flight.slow_request_in_trace" (Contract (Json.Bool true));
    (* E42 *)
    row "lifecycle.availability_pct" (Floor 99.0);
    row "lifecycle.warm_speedup" (Floor 10.0);
    row "lifecycle.corrupt" (Contract (Json.Int 0));
    row "lifecycle.untyped" (Contract (Json.Int 0));
    row "lifecycle.warm_keys_byte_identical" (Contract (Json.Bool true));
    row "lifecycle.drain_exit" (Contract (Json.Int 143)) ]

let lookup path doc =
  let step v seg =
    match String.index_opt seg '[' with
    | None -> Json.member seg v
    | Some i -> (
        let sel = String.sub seg (i + 1) (String.length seg - i - 2) in
        let field, want =
          match String.index_opt sel '=' with
          | Some j ->
              (String.sub sel 0 j, String.sub sel (j + 1) (String.length sel - j - 1))
          | None -> invalid_arg ("Gate.lookup: " ^ path)
        in
        let prints_as x =
          match Json.member field x with
          | Some (Json.Str s) -> s = want
          | Some (Json.Int n) -> string_of_int n = want
          | _ -> false
        in
        match Json.member (String.sub seg 0 i) v with
        | Some (Json.List xs) -> List.find_opt prints_as xs
        | _ -> None)
  in
  List.fold_left
    (fun v seg -> Option.bind v (fun v -> step v seg))
    (Some doc)
    (String.split_on_char '.' path)

(* the block a row reads: a run that did not measure it skips the row *)
let block path =
  List.hd (String.split_on_char '[' (List.hd (String.split_on_char '.' path)))

(* --- verdicts --- *)

type verdict = Pass | Fail | Within | Over | Unresolved | Missing

(* the one budget rule: [Over] only when the overhead clears the run's own
   A/A noise floor by more than the budget *)
let budget_verdict ~budget ~spread value =
  if value <= budget then Within
  else if value -. spread > budget then Over
  else Unresolved

let fails = function Fail | Over | Missing -> true | Pass | Within | Unresolved -> false

let verdict_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Within -> "within"
  | Over -> "over"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

type result = {
  row : row;
  value : Json.t;
  threshold : Json.t;
  spread : Json.t;  (** budget rows only *)
  verdict : verdict;
  enforced_here : bool;
}

let evaluate ~committed run doc row =
  let num path v = Option.bind (lookup path v) Json.to_float_opt in
  let value = Option.value (lookup row.path doc) ~default:Json.Null in
  let floor_verdict x =
    match Json.to_float_opt value with
    | None -> Missing
    | Some v -> if v >= x then Pass else Fail
  in
  let threshold, spread, verdict =
    match row.kind with
    | Floor x -> (Json.Float x, Json.Null, floor_verdict x)
    | Band f -> (
        match Option.bind committed (num row.path) with
        | None -> (Json.Null, Json.Null, Missing)
        | Some c ->
            let x = c *. (1.0 -. f) in
            (Json.Float x, Json.Null, floor_verdict x))
    | Budget (b, spread_path) -> (
        match (Json.to_float_opt value, num spread_path doc) with
        | Some v, Some s ->
            (Json.Float b, Json.Float s, budget_verdict ~budget:b ~spread:s v)
        | _ -> (Json.Float b, Json.Null, Missing))
    | Contract want ->
        ( want, Json.Null,
          if value = Json.Null then Missing
          else if value = want then Pass
          else Fail )
  in
  { row; value; threshold; spread; verdict;
    enforced_here = List.mem run row.enforced }

let kind_name = function
  | Floor _ -> "floor"
  | Band _ -> "band"
  | Budget _ -> "budget"
  | Contract _ -> "contract"

let result_json r =
  Json.Obj
    ([ ("path", Json.Str r.row.path);
       ("kind", Json.Str (kind_name r.row.kind));
       ("value", r.value);
       ("threshold", r.threshold) ]
    @ (if r.spread = Json.Null then [] else [ ("aa_spread_pct", r.spread) ])
    @ [ ("verdict", Json.Str (verdict_name r.verdict));
        ("enforced", Json.Bool r.enforced_here) ])

(* a run's flag, without the dashes *)
let run_name = function
  | Engines -> "engines"
  | Smoke -> "smoke"
  | Regression -> "regression-gate"
  | Chaos -> "chaos"
  | Flight -> "flight"
  | Lifecycle -> "lifecycle"

(* only --engines writes the committed snapshot, which Band rows read as
   their baseline *)
let output = function
  | Regression -> "BENCH_gate.json"
  | run -> "BENCH_" ^ run_name run ^ ".json"

let snapshot = output Engines

let read_snapshot () =
  if not (Sys.file_exists snapshot) then None
  else
    let ic = open_in_bin snapshot in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Ok v -> Some v
    | Error e -> raise (Err.invalid_input ~what:("Gate: " ^ snapshot) e)

(* --- the loop --- *)

(* Evaluate every row whose block the run measured, print one line per
   row, append the verdicts as a [gate] block and write the document to
   the run's output file. True when no row enforced in [run] failed. *)
let check run blocks =
  let committed = read_snapshot () in
  let doc = Json.Obj blocks in
  let results =
    List.filter_map
      (fun row ->
        if List.mem_assoc (block row.path) blocks then
          Some (evaluate ~committed run doc row)
        else None)
      rows
  in
  let failed = List.filter (fun r -> r.enforced_here && fails r.verdict) results in
  List.iter
    (fun r ->
      let show = function
        | Json.Float f -> Printf.sprintf "%.4g" f
        | v -> Json.to_string ~compact:true v
      in
      Printf.printf "gate: %-10s %s = %s (%s %s%s)%s\n" (verdict_name r.verdict)
        r.row.path (show r.value) (kind_name r.row.kind) (show r.threshold)
        (if r.spread = Json.Null then "" else ", A/A " ^ show r.spread)
        (if r.enforced_here then "" else " [not enforced here]"))
    results;
  let gate =
    Json.Obj
      [ ("run", Json.Str (run_name run));
        ("ok", Json.Bool (failed = []));
        ("rows", Json.List (List.map result_json results)) ]
  in
  Json.write ~path:(output run) (Json.Obj (blocks @ [ ("gate", gate) ]));
  Printf.printf "wrote %s; gate %s (%d row(s) failed)\n" (output run)
    (if failed = [] then "passed" else "FAILED")
    (List.length failed);
  failed = []
