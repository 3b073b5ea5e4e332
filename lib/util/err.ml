type t =
  | Invalid_input of { what : string; why : string }
  | Budget_exceeded of { budget : string; limit : int; used : int }
  | Deadline_exceeded of { limit_s : float; elapsed_s : float }
  | Cancelled of { where : string }
  | Worker_failure of { worker : string; attempts : int; why : string }
  | Overloaded of { queue : string; budget : int; pending : int }

exception Error of t

let invalid_input ~what why = Error (Invalid_input { what; why })
let budget_exceeded ~budget ~limit ~used = Error (Budget_exceeded { budget; limit; used })

let to_string = function
  | Invalid_input { what; why } -> Printf.sprintf "invalid input: %s: %s" what why
  | Budget_exceeded { budget; limit; used } ->
      Printf.sprintf "budget exceeded: %s: used %d of limit %d" budget used limit
  | Deadline_exceeded { limit_s; elapsed_s } ->
      Printf.sprintf "deadline exceeded: %.3fs elapsed of %.3fs allowed" elapsed_s limit_s
  | Cancelled { where } -> Printf.sprintf "cancelled: %s" where
  | Worker_failure { worker; attempts; why } ->
      Printf.sprintf "worker failure: %s failed after %d attempt%s: %s" worker
        attempts (if attempts = 1 then "" else "s") why
  | Overloaded { queue; budget; pending } ->
      Printf.sprintf "overloaded: %s: %d pending exceeds budget %d" queue pending
        budget

let class_name = function
  | Invalid_input _ -> "invalid-input"
  | Budget_exceeded _ -> "budget-exceeded"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Cancelled _ -> "cancelled"
  | Worker_failure _ -> "worker-failure"
  | Overloaded _ -> "overloaded"

(* Exit codes start at 65 (sysexits EX_DATAERR) to stay clear of shell
   conventions (0/1/2), signal codes (128+), and Cmdliner's own 123-125.
   The table is append-only: codes are part of the scripted-caller
   contract and pinned by the exit-code stability test. *)
let exit_code = function
  | Invalid_input _ -> 65
  | Budget_exceeded _ -> 66
  | Deadline_exceeded _ -> 67
  | Cancelled _ -> 68
  | Worker_failure _ -> 69
  | Overloaded _ -> 70

let protect f = match f () with v -> Ok v | exception Error e -> Result.Error e

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Hlp_util.Err.Error(%s)" (to_string e))
    | _ -> None)
