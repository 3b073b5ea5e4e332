(* hlpower batch's job body (bin/hlpower.ml), made of the same library
   calls: guarded estimation under one symbolic breaker shared by the
   campaign, a checkpoint journal and an atomic result file per job, run
   by Supervisor.run_jobs with max_inflight 1. *)

module P = Hlp_power.Probprop
module Sup = Hlp_util.Supervisor
module J = Hlp_util.Json
module W = Workloads

let result_path dir (job : W.job) =
  Filename.concat dir (job.name ^ ".result.json")

let journal_path dir (job : W.job) = Filename.concat dir (job.name ^ ".journal")

(* one job, as the batch command runs it *)
let body (tracer : Spans.tracer) ~dir ~breaker (job : W.job) guard =
  let ck = P.checkpoint (journal_path dir job) in
  let try_symbolic =
    Hlp_logic.Netlist.num_dffs job.net = 0 && Sup.breaker_allows breaker
  in
  let r =
    tracer.span "probprop.estimate_guarded" (fun () ->
        P.estimate_guarded ~guard ~try_symbolic ~checkpoint:ck
          ~node_limit:W.batch_node_limit
          ~relative_precision:W.unreachable_precision
          ~max_cycles:W.batch_max_cycles ~seed:job.seed
          ~engine:Hlp_sim.Engine.Bitparallel job.net)
  in
  (if try_symbolic then
     match r with
     | Ok g when g.P.symbolic_fallback -> Sup.breaker_failure breaker
     | _ -> Sup.breaker_success breaker);
  match r with
  | Error e -> raise (Hlp_util.Err.Error e)
  | Ok g ->
      tracer.span "journal.result_write" (fun () ->
          J.write ~path:(result_path dir job)
            (J.Obj
               [ ("name", J.Str job.name);
                 ("estimate", J.Float g.P.capacitance);
                 ("provenance", P.provenance_json g.P.provenance) ]));
      g

type campaign = {
  results : (P.guarded, Hlp_util.Err.t) result array;
  latency : float array;  (** per job, seconds *)
  waits : float array;
      (** per job: seconds since the previous job ended, or since the
          campaign began *)
  wall_s : float;
  breaker_opened : bool;
}

(* Run [jobs] as one campaign, its files in [dir]. [wrap] runs around each
   job's body; the traced run decomposes the job there. *)
let run ?(wrap = fun _ body -> body ()) tracer ~dir jobs =
  Util.mkdir dir;
  let breaker = Sup.breaker "probprop.symbolic" in
  let opened = Atomic.make false in
  let n = Array.length jobs in
  let starts = Array.make n 0L and ends = Array.make n 0L in
  let t0 = Util.now_ns () in
  let results, _ =
    Sup.run_jobs ~max_inflight:1
      (fun i guard job ->
        starts.(i) <- Util.now_ns ();
        let g = wrap i (fun () -> body tracer ~dir ~breaker job guard) in
        ends.(i) <- Util.now_ns ();
        if Sup.breaker_state breaker = Sup.Open then Atomic.set opened true;
        g)
      jobs
  in
  let wall_s = Util.since t0 in
  let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9 in
  { results;
    latency = Array.init n (fun i -> secs starts.(i) ends.(i));
    waits =
      Array.init n (fun i -> secs (if i = 0 then t0 else ends.(i - 1)) starts.(i));
    wall_s;
    breaker_opened = Atomic.get opened }

(* Whether each job answered as expected, and why not: friendly jobs
   symbolically, doomed ones by Monte Carlo after a budget trip, each
   result file holding its job's estimate, the breaker never open. *)
let verdicts ~dir (jobs : W.job array) c =
  Array.mapi
    (fun i r ->
      let job = jobs.(i) in
      match r with
      | Error e -> (false, job.name ^ ": " ^ Hlp_util.Err.to_string e)
      | Ok g ->
          let used = g.P.provenance.P.estimator_used in
          let estimator_ok =
            if job.doomed then used = "monte_carlo" && g.P.symbolic_fallback
            else used = "symbolic"
          in
          let written =
            match
              J.parse
                (In_channel.with_open_text (result_path dir job)
                   In_channel.input_all)
            with
            | Ok j ->
                Option.map Int64.bits_of_float
                  (Option.bind (J.member "estimate" j) J.to_float_opt)
            | Error _ -> None
            | exception Sys_error _ -> None
          in
          ( estimator_ok
            && written = Some (Int64.bits_of_float g.P.capacitance)
            && not c.breaker_opened,
            Printf.sprintf "%s: estimator %s, result file %s, breaker opened %b"
              job.name used
              (if written = None then "unreadable" else "read")
              c.breaker_opened ))
    c.results
