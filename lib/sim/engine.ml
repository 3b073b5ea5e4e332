type t = Scalar | Bitparallel | Compiled

let all = [ Scalar; Bitparallel; Compiled ]

let to_string = function
  | Scalar -> "scalar"
  | Bitparallel -> "bitparallel"
  | Compiled -> "compiled"

let of_string = function
  | "scalar" -> Some Scalar
  | "bitparallel" | "bitpar" -> Some Bitparallel
  (* "parallel"/"par" named a domain-sharded engine that is gone; requests
     still naming it get the fastest engine *)
  | "compiled" | "kernel" | "parallel" | "par" -> Some Compiled
  | _ -> None
