type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* the splitmix64 output function; inlined, so a caller that only
   converts the result keeps it unboxed *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  let z = Int64.add t.state golden in
  t.state <- z;
  mix z

(* The state lives in a local ref for the loop, which the compiler keeps
   unboxed; storing to [t.state] once at the end boxes one [Int64]
   instead of one per word. *)
let fill_words t words ~pos ~stride ~count =
  if count < 0 || pos < 0 || stride < 1
     || (count > 0 && pos + ((count - 1) * stride) >= Array.length words)
  then invalid_arg "Prng.fill_words";
  let s = ref t.state in
  for i = 0 to count - 1 do
    let z = Int64.add !s golden in
    s := z;
    Array.unsafe_set words (pos + (i * stride)) (Int64.to_int (mix z))
  done;
  t.state <- !s

let split t =
  let s = bits64 t in
  { state = s }

let state t = t.state
let of_state s = { state = s }

let int t n =
  assert (n > 0);
  (* keep 62 bits so the value fits OCaml's 63-bit int as a nonnegative *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t 1.0 in
      mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let exponential t ~mean =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else -.mean *. log u
  in
  draw ()

let pareto t ~shape ~scale =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else scale /. (u ** (1.0 /. shape))
  in
  draw ()

let geometric t ~p =
  assert (p > 0.0 && p <= 1.0);
  let rec count k = if bernoulli t p then k else count (k + 1) in
  count 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_weighted t l =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 l in
  assert (total > 0.0);
  let x = float t total in
  let rec go acc = function
    | [] -> invalid_arg "pick_weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
  in
  go 0.0 l
