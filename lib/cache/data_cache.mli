(** Direct-mapped, physically-indexed data cache with byte-accurate
    contents.

    The cache keeps a private copy of each resident line, so a CPU read
    after an un-invalidated DMA write really does return {e stale bytes} —
    exactly the hazard the lazy cache-invalidation scheme of paper §2.3
    gambles on. Two coherence modes:

    - [Software] (DECstation 5000/200): DMA writes to main memory leave
      resident cache lines untouched. Correctness requires an explicit
      {!invalidate} of the written range (costing one CPU cycle per 32-bit
      word, per the paper), or the lazy discipline of checking end-to-end
      checksums and invalidating only on failure.
    - [Hardware_update] (DEC 3000/600): DMA writes update resident lines, so
      no invalidation is ever needed.

    All timed operations block the calling process; fills and write-throughs
    go through the {!Osiris_bus.Turbochannel} model, so on a shared-bus
    machine they contend with concurrent DMA.

    Layout: one tag per line in an [int array] and every line's bytes in
    one [size]-byte buffer that stays unwritten until a line fills. A
    cache costs [size / line_size] words of heap plus the pages of the
    lines a run actually fills, not [size] bytes of resident memory. *)

type coherence = Software | Hardware_update

type config = {
  size : int;  (** total data capacity in bytes *)
  line_size : int;  (** bytes per line *)
  coherence : coherence;
  cpu_hz : int;  (** CPU clock, for cycle-denominated costs *)
  hit_cycles_per_word : int;  (** CPU cycles to consume one cached word *)
  fill_overhead_cycles : int;  (** bus setup cycles per line fill *)
  invalidate_cycles_per_word : int;  (** §2.3: one cycle per 32-bit word *)
}

type t

val create :
  Osiris_sim.Engine.t -> mem:Osiris_mem.Phys_mem.t -> bus:Osiris_bus.Turbochannel.t -> config -> t

val config : t -> config

val read : t -> addr:int -> len:int -> Bytes.t
(** CPU read of a physical range through the cache: misses are filled from
    main memory over the bus, hits are served from the resident copy — which
    may be stale in [Software] mode. Takes simulated time. *)

val read_into : t -> addr:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit

val write : t -> addr:int -> src:Bytes.t -> unit
(** CPU write through the cache (write-through, no write-allocate): main
    memory is updated, and any resident lines covering the range are updated
    too. Takes simulated time for the write-through bus traffic. *)

val invalidate : t -> addr:int -> len:int -> unit
(** Explicitly invalidate all lines overlapping the range, at
    [invalidate_cycles_per_word] of CPU time per word actually covered
    (whether or not resident). *)

val invalidate_all : t -> unit
(** The "swap the whole cache" big hammer (paper §2.3 footnote): instant
    invalidation, but every subsequent access misses. No time is charged
    here; the cost shows up as the refill misses. *)

val pressure : t -> lines:int -> unit
(** Model capacity pressure from unrelated activity: evict [lines] resident
    lines (round-robin over the index space) as if other data had displaced
    them. Free of simulated time — the displacing accesses are charged by
    whoever models them (the CPU's background memory-traffic hook). *)

val dma_wrote : t -> addr:int -> len:int -> unit
(** Notify the cache that DMA wrote the range. In [Hardware_update] mode
    resident lines are refreshed from memory (free, done by hardware); in
    [Software] mode resident lines are left stale and counted. Takes no
    simulated time. *)

val resident : t -> addr:int -> bool
(** Is the line containing [addr] resident (tag match)? *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidated_lines : int;
  mutable stale_overlaps : int;
      (** DMA writes that overlapped a resident line in [Software] mode —
          each is a latent stale-data hazard *)
  mutable stale_reads : int;
      (** reads that actually returned bytes differing from main memory *)
}

val stats : t -> stats
