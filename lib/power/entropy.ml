let activity_upper_bound h = h /. 2.0

let h_avg_marculescu ~n ~m ~h_in ~h_out =
  assert (n > 0 && m > 0 && h_in > 0.0 && h_out > 0.0);
  let nf = float_of_int n and mf = float_of_int m in
  let ratio = h_in /. h_out in
  if abs_float (ratio -. 1.0) < 1e-6 then
    (* entropy does not decay: every line carries the boundary entropy *)
    h_in
  else begin
    let lnr = log ratio in
    let inv = h_out /. h_in in
    2.0 *. nf *. h_in
    /. ((nf +. mf) *. lnr)
    *. (1.0 -. (mf /. nf *. inv) -. ((1.0 -. (mf /. nf)) *. (1.0 -. inv) /. lnr))
  end

let h_avg_nemani_najm ~n ~m ~h_in ~h_out =
  assert (n > 0 && m > 0);
  2.0 /. (3.0 *. float_of_int (n + m)) *. (h_in +. h_out)

let power ~c_tot ~e_avg ~vdd ~freq = 0.5 *. vdd *. vdd *. freq *. c_tot *. e_avg

type estimate = {
  h_in : float;
  h_out : float;
  h_avg : float;
  e_avg : float;
  c_tot : float;
  power : float;
}

type model = Marculescu | Nemani_najm

let estimate_netlist ?(vdd = 5.0) ?(freq = 1.0) ~model net ~input_trace =
  let open Hlp_logic in
  let n = Array.length net.Netlist.inputs in
  let m = Array.length net.Netlist.outputs in
  assert (n > 0 && m > 0 && Array.length input_trace >= 2);
  (* one compiled replay observes the outputs; the engine chain falls
     back to the scalar simulator where the kernel cannot run *)
  let vector i = Array.init n (fun b -> Hlp_util.Bits.bit input_trace.(i) b) in
  let out_trace =
    match
      Hlp_sim.Parsim.replay_guarded ~engine:Hlp_sim.Engine.Compiled net ~vector
        ~n:(Array.length input_trace)
    with
    | Ok d -> d.Hlp_sim.Parsim.value.Hlp_sim.Parsim.out_words
    | Error e -> raise (Hlp_util.Err.Error e)
  in
  let act_in = Hlp_sim.Activity.of_trace ~width:n input_trace in
  let act_out = Hlp_sim.Activity.of_trace ~width:m out_trace in
  let h_in = Hlp_sim.Activity.mean_bit_entropy act_in in
  let h_out = Hlp_sim.Activity.mean_bit_entropy act_out in
  let h_avg =
    match model with
    | Marculescu ->
        let h_in = max h_in 1e-6 and h_out = max h_out 1e-6 in
        (* the decay model needs h_out < h_in; clamp boundary noise *)
        let h_out = min h_out h_in in
        h_avg_marculescu ~n ~m ~h_in ~h_out
    | Nemani_najm ->
        (* sectional entropies approximated by bit-entropy sums *)
        h_avg_nemani_najm ~n ~m
          ~h_in:(h_in *. float_of_int n)
          ~h_out:(h_out *. float_of_int m)
  in
  let e_avg = activity_upper_bound h_avg in
  let c_tot = Netlist.total_capacitance net in
  { h_in; h_out; h_avg; e_avg; c_tot; power = power ~c_tot ~e_avg ~vdd ~freq }
