(* Spans around the calls into each layer, recorded by the traced run
   only. A span's self time is its duration minus its child spans'. The
   spans of one operation are collected together and taken when it ends. *)

type frame = { name : string; start : int64; mutable children : int64 }

let stack : frame list ref = ref []
let self_ns : (string, int64) Hashtbl.t = Hashtbl.create 16
let total_ns : (string, int64) Hashtbl.t = Hashtbl.create 16

let bump tbl k v =
  Hashtbl.replace tbl k
    (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt tbl k)))

let close fr =
  let dur = Int64.sub (Util.now_ns ()) fr.start in
  stack := List.tl !stack;
  (match !stack with
  | parent :: _ -> parent.children <- Int64.add parent.children dur
  | [] -> ());
  bump self_ns fr.name (Int64.sub dur fr.children);
  bump total_ns fr.name dur

let span name f =
  let fr = { name; start = Util.now_ns (); children = 0L } in
  stack := fr :: !stack;
  match f () with
  | v ->
      close fr;
      v
  | exception e ->
      close fr;
      raise e

(* Code shared by traced and untraced runs takes a tracer: [on] records
   spans, [off] makes the same calls without them. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let on = { span }
let off = { span = (fun _ f -> f ()) }

(* one operation's seconds per span name, self and total *)
type op = { self : (string * float) list; total : (string * float) list }

let take () =
  let secs tbl =
    Hashtbl.fold (fun k v acc -> (k, Int64.to_float v *. 1e-9) :: acc) tbl []
  in
  let o = { self = secs self_ns; total = secs total_ns } in
  Hashtbl.reset self_ns;
  Hashtbl.reset total_ns;
  o

let self o k = Option.value ~default:0.0 (List.assoc_opt k o.self)
let total o k = Option.value ~default:0.0 (List.assoc_opt k o.total)
