(** Open-addressed, bounded-probe classification table.

    The connection-dense demux structure: packed non-negative int keys
    (VCIs, or [(port lsl 16) lor vci] routing keys), values in a flat
    parallel array, power-of-two capacity, Robin-Hood linear probing
    with backward-shift deletion. {!find_slot} — the per-cell lookup —
    allocates nothing and probes at most [probe_bound] slots; inserts
    that would break that bound double the capacity instead, so the
    bound is structural.

    Lookup costs are recorded (count, probe sum, histogram) for the
    cycle-cost model in {!Cost}; an optional [Hashtbl] differential
    oracle mirrors every mutation and is audited by {!check}. *)

type 'a t

type probe_stats = {
  lookups : int;  (** {!find_slot} calls since the last reset *)
  probes : int;  (** total slots probed across those lookups *)
  max_probe : int;  (** structural worst case right now *)
  p99_probe : int;  (** 99th-percentile probes per lookup *)
}

val create : ?oracle:bool -> ?probe_bound:int -> dummy:'a -> int -> 'a t
(** A table sized for [n] entries (rounded up to a power of two, at
    least 8). [dummy] fills vacant value slots so removed values are
    not pinned. [probe_bound] (default 16, minimum 4) caps lookup
    probes. [oracle] (default false) maintains the [Hashtbl] mirror. *)

val length : 'a t -> int
val capacity : 'a t -> int
val probe_bound : 'a t -> int
val has_oracle : 'a t -> bool

val find_slot : 'a t -> int -> int
(** Slot index of the key, or [-1]. The hot path: allocation-free,
    at most [probe_bound] probes, recorded in the probe statistics. *)

val slot_value : 'a t -> int -> 'a
(** Value at a slot returned by {!find_slot}. Allocation-free. *)

val slot_key : 'a t -> int -> int

val mem : 'a t -> int -> bool
(** Membership without touching the probe statistics. *)

val find : 'a t -> int -> 'a option
(** Convenience lookup (allocates the option); statistics untouched. *)

val add : 'a t -> int -> 'a -> unit
(** Insert or replace. Raises [Invalid_argument] on a negative key
    (negative keys are the empty-slot encoding). May grow the table. *)

val remove : 'a t -> int -> unit
(** Backward-shift removal; no tombstones. Absent keys are ignored. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val probe_stats : 'a t -> probe_stats
val reset_probe_stats : 'a t -> unit

val resident_bytes : 'a t -> int
(** Analytic memory footprint of the table proper (slot arrays, record,
    histogram; 8-byte words) — the per-VC state-size axis of the
    demux_scale figure. *)

val check : 'a t -> string list
(** Structural invariants (count, displacements within bound, every
    present key reachable) plus, when the oracle is on, two-way
    equivalence with the mirror (values compared physically). Empty =
    clean. *)
