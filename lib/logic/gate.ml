type kind =
  | Input
  | Const of bool
  | Buf
  | Not
  | And of int
  | Or of int
  | Nand of int
  | Nor of int
  | Xor
  | Xnor
  | Mux
  | Dff

let arity = function
  | Input | Const _ -> 0
  | Buf | Not | Dff -> 1
  | And n | Or n | Nand n | Nor n ->
      assert (n >= 2);
      n
  | Xor | Xnor -> 2
  | Mux -> 3

let eval kind pins =
  assert (Array.length pins = arity kind);
  let conj () = Array.for_all (fun b -> b) pins in
  let disj () = Array.exists (fun b -> b) pins in
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no function"
  | Const b -> b
  | Buf | Dff -> pins.(0)
  | Not -> not pins.(0)
  | And _ -> conj ()
  | Or _ -> disj ()
  | Nand _ -> not (conj ())
  | Nor _ -> not (disj ())
  | Xor -> pins.(0) <> pins.(1)
  | Xnor -> pins.(0) = pins.(1)
  | Mux -> if pins.(0) then pins.(2) else pins.(1)

(* The n-ary names up to arity 16, built once: the fingerprint walk asks
   for every node's name, so a common gate's name allocates nothing. A
   wider gate's name is built with the same text. *)
let nary_names prefix = Array.init 17 (fun n -> prefix ^ string_of_int n)
let and_names = nary_names "and"
let or_names = nary_names "or"
let nand_names = nary_names "nand"
let nor_names = nary_names "nor"

let nary names prefix n =
  if n >= 0 && n < Array.length names then names.(n)
  else prefix ^ string_of_int n

let name = function
  | Input -> "input"
  | Const b -> if b then "one" else "zero"
  | Buf -> "buf"
  | Not -> "inv"
  | And n -> nary and_names "and" n
  | Or n -> nary or_names "or" n
  | Nand n -> nary nand_names "nand" n
  | Nor n -> nary nor_names "nor" n
  | Xor -> "xor2"
  | Xnor -> "xnor2"
  | Mux -> "mux2"
  | Dff -> "dff"

(* Characterization: loosely modeled on a 0.8um standard-cell book, in units
   of one minimum inverter input capacitance and one inverter delay. *)

let input_capacitance = function
  | Input | Const _ -> 0.0
  | Buf -> 1.0
  | Not -> 1.0
  | And _ | Nand _ -> 1.1
  | Or _ | Nor _ -> 1.2
  | Xor | Xnor -> 1.8
  | Mux -> 1.4
  | Dff -> 2.0

let intrinsic_capacitance = function
  | Input -> 0.4
  | Const _ -> 0.0
  | Buf -> 0.6
  | Not -> 0.5
  | And n | Nand n -> 0.6 +. (0.25 *. float_of_int n)
  | Or n | Nor n -> 0.7 +. (0.3 *. float_of_int n)
  | Xor | Xnor -> 2.0
  | Mux -> 1.6
  | Dff -> 2.4

let delay = function
  | Input | Const _ -> 0.0
  | Buf -> 1.0
  | Not -> 1.0
  | And n | Nand n -> 1.0 +. (0.2 *. float_of_int (n - 2))
  | Or n | Nor n -> 1.2 +. (0.2 *. float_of_int (n - 2))
  | Xor | Xnor -> 1.8
  | Mux -> 1.5
  | Dff -> 2.0

let gate_equivalents = function
  | Input | Const _ -> 0.0
  | Buf | Not -> 0.5
  | And n | Nand n -> 0.5 *. float_of_int n
  | Or n | Nor n -> 0.5 *. float_of_int n
  | Xor | Xnor -> 1.5
  | Mux -> 1.5
  | Dff -> 4.0

let all_combinational =
  [ Buf; Not; And 2; And 3; Or 2; Or 3; Nand 2; Nand 3; Nor 2; Nor 3; Xor; Xnor; Mux ]
