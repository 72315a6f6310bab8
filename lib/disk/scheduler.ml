type policy = Fcfs | Clook | Sstf

let policy_name = function Fcfs -> "FCFS" | Clook -> "C-LOOK" | Sstf -> "SSTF"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "fcfs" | "fifo" -> Some Fcfs
  | "clook" | "c-look" -> Some Clook
  | "sstf" -> Some Sstf
  | _ -> None
