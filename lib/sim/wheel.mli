(** Hierarchical timer wheel: the engine's default event queue.

    Same ordering contract as {!Heap} — entries come out in nondecreasing
    [(key, seq)] order — under two conditions the engine guarantees:
    keys are non-negative and never below the {!floor} (the last popped
    key), and same-key adds arrive in increasing [seq] order. 13 levels
    of 32 slots cover the whole int key space; popping an imminent event
    is O(1) and a far-future event is cascaded down at most 12 times
    over its whole lifetime, against O(log n) comparisons per heap
    operation. Nodes live in a struct-of-arrays pool (int keys, seqs and
    links, one value array) that doubles when full; popped nodes are
    recycled through an int freelist with their values cleared, so a
    drained wheel retains no user data and steady-state adds and takes
    allocate nothing. *)

type 'a t

val create : dummy:'a -> 'a t
(** A fresh empty wheel with the floor at 0 and room for 64 entries
    before its pool first doubles. [dummy] fills every free node's value
    slot, so recycled nodes never pin user data; it is never returned. *)

val length : 'a t -> int
(** Number of entries currently queued. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Nodes in the pool: the most entries the wheel has room for before it
    next doubles. Never shrinks. *)

val add : 'a t -> key:int -> seq:int -> 'a -> unit
(** [add t ~key ~seq v] inserts [v] with priority [(key, seq)]. Raises
    [Invalid_argument] if [key] is below {!floor} — the wheel, unlike
    the heap, cannot travel back in time. *)

val pop_min : 'a t -> (int * int * 'a) option
(** Remove and return the entry with the smallest [(key, seq)], or
    [None] if the wheel is empty. Advances {!floor} to the popped key.
    Allocates the result triple; the engine's dispatch loop uses
    {!take} instead. *)

val take : 'a t -> 'a
(** Allocation-free {!pop_min}: removes the minimum entry and returns
    its value; its key and sequence number are readable from
    {!last_key}/{!last_seq} until the next [take]. Raises [Not_found]
    on an empty wheel. *)

val last_key : 'a t -> int
(** Key of the entry the last {!take} returned. 0 before any take. *)

val last_seq : 'a t -> int
(** Sequence number of the entry the last {!take} returned. *)

val peek_key : 'a t -> int option
(** Key of the minimum entry, without removing it or moving {!floor}. *)

val next_key : 'a t -> int
(** Allocation-free {!peek_key}: the minimum key, or [max_int] when the
    wheel is empty (keys are non-negative and [max_int] is rejected by
    the engine's clock arithmetic long before it could be scheduled). *)

val floor : 'a t -> int
(** Smallest key currently accepted by {!add}: the largest key ever
    popped (or a cascade boundary at most that large). 0 when nothing
    has been popped. *)
