(** Host main memory.

    A byte-addressable store with a frame (physical page) allocator. It is
    sparse: a page takes host memory only from its first write on, and an
    untouched page reads as zeros.
    The allocator hands out frames in a {e scrambled} order by default: this
    reproduces the central fact of paper §2.2 that virtually contiguous
    pages are generally not physically contiguous, so a multi-page PDU
    decomposes into one physical buffer per page. A best-effort contiguous
    allocation mode models the OS support the authors were experimenting
    with. *)

type t

val create : ?scramble:Osiris_util.Rng.t -> size:int -> page_size:int -> unit -> t
(** [create ~size ~page_size ()] makes a memory of [size] bytes ([size] must
    be a multiple of [page_size]). When [scramble] is given, the free-frame
    list is shuffled with it; otherwise frames are handed out in address
    order (useful in unit tests). *)

val size : t -> int
val page_size : t -> int
val frames : t -> int
(** Total number of frames. *)

val free_frames : t -> int

val resident_bytes : t -> int
(** Bytes of the pages written so far; [0] on a fresh memory. {!size}
    stays the nominal size. *)

val alloc_frame : t -> int
(** Allocate one frame; returns its physical base address. Raises
    [Out_of_memory] when exhausted. *)

val alloc_contiguous : t -> nframes:int -> int option
(** Best-effort allocation of [nframes] physically contiguous frames;
    returns the base address of the run, or [None] if no such run is free.
    Models dynamic contiguous allocation (paper §2.2). *)

val free_frame : t -> int -> unit
(** Return a frame (by base address) to the allocator. Raises [Invalid_arg]
    on double-free or unaligned address. *)

(** Raw access. Reads and writes take physical addresses; bounds are
    checked. These are the operations DMA and the CPU model perform — cost
    accounting lives in the bus/cache layers, not here. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_u32 : t -> int -> int32
val write_u32 : t -> int -> int32 -> unit
val blit_from_bytes : t -> src:Bytes.t -> src_off:int -> dst:int -> len:int -> unit
val blit_to_bytes : t -> src:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> addr:int -> len:int -> char -> unit

val region_equal : t -> addr:int -> Bytes.t -> off:int -> len:int -> bool
(** [region_equal t ~addr b ~off ~len] is whether the [len] bytes at
    [addr] equal those of [b] from [off]. It compares in place and does not
    allocate. *)

val fold_chunks :
  t -> addr:int -> len:int -> (Bytes.t -> int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_chunks t ~addr ~len f acc] folds [f bytes off n] over the
    region in address order, one storage page at a time: each call sees
    the next [n] bytes of the region at [off] in [bytes]. This reads the
    region in place, without a copy; [bytes] is the memory's own storage
    (for an untouched page, the shared zero page), so [f] must only read
    it. *)

val bytes_of_region : t -> addr:int -> len:int -> Bytes.t
(** Copy of a region, for assertions and checksum computation. *)

val bytes_of_pbufs : t -> Pbuf.t list -> Bytes.t
(** Concatenated copy of the regions named by a buffer list. *)
