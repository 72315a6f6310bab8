(** The on-disk allocation bitmap format, read and written in place.

    A bitmap lives at byte offset [base] inside a block buffer (a cylinder
    group header, say).  Bit [i] is bit [i mod 8] of byte [base + i / 8];
    a set bit means "allocated".  Every allocator, fsck and layout
    introspector in the repository goes through these functions, so the
    bit order is decided here and nowhere else.

    Scans test one bit at a time; indices are bitmap-relative. *)

val get : bytes -> int -> int -> bool
(** [get b base i] is bit [i] of the bitmap at [base] in [b]. *)

val set : bytes -> int -> int -> unit
val clear : bytes -> int -> int -> unit

val find_clear : bytes -> int -> len:int -> hint:int -> int option
(** First clear bit of a [len]-bit bitmap scanning circularly: from
    [hint mod len] to the end, then from 0 up to the hint. *)

val find_clear_in : bytes -> int -> lo:int -> hi:int -> int option
(** First clear bit in [\[lo, hi)], or [None]. *)

val all_clear : bytes -> int -> off:int -> len:int -> bool
(** Are all [len] bits from [off] clear? *)

val count_clear : bytes -> int -> off:int -> len:int -> int
(** Number of clear bits among the [len] bits from [off]. *)
