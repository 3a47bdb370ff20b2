(** Binary min-heap keyed on [(key, seq)]: the engine's event queue.

    Entries come out in increasing [(key, seq)] order, so events
    scheduled for the same instant fire in scheduling order. Keys are
    never below the pop floor ({!last_key}): the heap, like the clock it
    serves, cannot travel back in time. Sifts move ints only; values sit
    in a node pool that doubles when full, popped nodes are recycled
    with their value slots cleared, so a drained heap retains no user
    data and steady-state adds and takes allocate nothing. *)

type 'a t

val create : dummy:'a -> 'a t
(** A fresh empty heap with the floor at 0 and room for 64 entries
    before its pool first doubles. [dummy] fills every free node's value
    slot, so recycled nodes never pin user data; it is never returned. *)

val length : 'a t -> int
(** Number of entries currently queued. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Nodes in the pool: the most entries the heap has room for before it
    next doubles. Never shrinks. *)

val add : 'a t -> key:int -> seq:int -> 'a -> unit
(** [add t ~key ~seq v] inserts [v] with priority [(key, seq)]. Raises
    [Invalid_argument] if [key] is below {!last_key}. *)

val take : 'a t -> 'a
(** Removes the minimum entry and returns its value; its key and
    sequence number are readable from {!last_key}/{!last_seq} until the
    next [take]. Allocates nothing. Raises [Not_found] on an empty
    heap. *)

val pop_min : 'a t -> (int * int * 'a) option
(** {!take} as [Some (key, seq, value)], or [None] if the heap is
    empty. Allocates the result. *)

val next_key : 'a t -> int
(** The minimum key, or [max_int] when the heap is empty (the engine's
    clock arithmetic rejects [max_int] long before it could be
    scheduled). *)

val last_key : 'a t -> int
(** Key of the entry the last {!take} returned, 0 before any: the pop
    floor, below which {!add} rejects keys. *)

val last_seq : 'a t -> int
(** Sequence number of the entry the last {!take} returned. *)
