(** Information-theoretic power models (Section II-B1).

    Entropy measures the randomness of the signals crossing a module
    boundary; under temporal independence the switching activity of a line
    is at most half its entropy, so input/output entropies plus a model of
    how entropy decays through logic give a simulation-free estimate of the
    average switching activity — and hence of power, via
    [P = 0.5 V^2 f C_tot E_avg]. *)

val activity_upper_bound : float -> float
(** [h/2]: Marculescu et al.'s bound on the average switching activity of a
    line with bit entropy [h]. *)

val h_avg_marculescu : n:int -> m:int -> h_in:float -> h_out:float -> float
(** Closed-form average line entropy for a linear gate distribution between
    [n] inputs and [m] outputs with average bit-level boundary entropies
    [h_in], [h_out] (exponential per-level decay model, [9]). Requires
    [h_in > h_out > 0]. *)

val h_avg_nemani_najm : n:int -> m:int -> h_in:float -> h_out:float -> float
(** Nemani-Najm average line entropy [2 (H_in + H_out) / (3 (n + m))] from
    *word-level* boundary entropies (quadratic decay model, [10]). In
    practice the word entropies are approximated by the sums of bit
    entropies, which is what this function expects: pass
    [h_in = n * mean bit entropy] and [h_out = m * mean bit entropy]. *)

val power :
  c_tot:float -> e_avg:float -> vdd:float -> freq:float -> float
(** [0.5 V^2 f C_tot E_avg], the Section II-B1 power expression. *)

type estimate = {
  h_in : float;  (** measured mean input bit entropy *)
  h_out : float;  (** measured mean output bit entropy *)
  h_avg : float;  (** modeled average line entropy *)
  e_avg : float;  (** modeled average activity, [h_avg / 2] *)
  c_tot : float;
  power : float;
}

type model = Marculescu | Nemani_najm

val estimate_netlist :
  ?vdd:float ->
  ?freq:float ->
  model:model ->
  Hlp_logic.Netlist.t ->
  input_trace:int array ->
  estimate
(** End-to-end behavioural estimate of a combinational module: boundary
    entropies are measured on the given input trace (one word per cycle,
    packed LSB-first across the module's input vector) and on the outputs
    of a quick functional simulation — exactly the paper's flow. The
    line-entropy model converts them into an average activity; the
    structural [C_tot] comes from the netlist.

    The outputs come from one {!Hlp_sim.Parsim.replay_guarded} of the
    trace on the [Compiled] engine, which degrades to [Scalar] where the
    kernel cannot run (a netlist with registers); every engine gives the
    same output words. A replay that fails on every engine raises its
    typed {!Hlp_util.Err.Error}. *)
