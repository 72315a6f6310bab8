(** Request scheduling policies.

    The paper's disk driver "supports scatter/gather I/O and uses a C-LOOK
    scheduling algorithm [Worthington94]".  C-LOOK is the default; FCFS and
    SSTF are provided for the scheduling ablation.  {!Ioqueue.take}
    implements them over its window:
    - [Fcfs]: arrival order;
    - [Clook]: ascending LBA starting from the first request at or beyond
      the current cylinder, wrapping once to the lowest;
    - [Sstf]: the request with the smallest cylinder distance from the
      current position. *)

type policy = Fcfs | Clook | Sstf

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Case-insensitive; accepts ["fcfs"]/["fifo"], ["clook"]/["c-look"] and
    ["sstf"]. *)
