(** FIFO queues of parked processes: the waiter lists behind {!Mailbox},
    {!Signal} and {!Resource}.

    Each entry is a waker, the [(process, generation)] pair that
    {!Process.wake} checks. Entries with a smaller [priority] are woken
    first; equal priorities are woken in arrival order. The queue is a
    ring of plain arrays that doubles when full, so a queue at its working
    size adds and wakes without allocating. *)

type t

val create : unit -> t

val add : t -> priority:int -> Process.t -> unit
(** [add q ~priority p] records a waker for [p]'s next park. The caller
    parks [p] right after. *)

val wake_one : t -> unit
(** Wake the first waiter, if any. *)

val wake_all : t -> unit
(** Wake every waiter queued at the time of the call, in queue order. *)

val length : t -> int
val is_empty : t -> bool
