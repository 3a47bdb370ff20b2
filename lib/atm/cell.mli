(** ATM cells as the OSIRIS adaptor sees them.

    A cell is 53 bytes on the wire: a 5-byte ATM header and a 48-byte
    payload of which the adaptation layer (AAL) claims 4 bytes, leaving
    {!data_size} = 44 bytes of user data per cell — the paper's "44 bytes,
    because of AAL overhead".

    The AAL header carries the per-cell sequence number used by the
    sequence-number reassembly strategy of §2.6 and the per-stream framing
    (end-of-message) bit used by the AAL5-style strategies. The ATM header
    carries the VCI — the early-demultiplexing key — and the extra
    "very last cell of the PDU" framing bit that §2.6 proposes for striped
    PDUs shorter than the stripe width, and the congestion bit.

    {2 Cells are views}

    A cell does not own its data. It is one immediate header word plus a
    view of {!data_size} bytes at {!off} in a buffer {!buf}; every cell
    cut from one framed PDU views the same buffer. Nothing writes a buffer
    once cells view it: the operations that change a cell's data
    ({!corrupt}) copy first, and header rewrites ({!relabel},
    {!with_seq}) build a new view of the same bytes. A cell can therefore
    be shared freely, e.g. by a duplicate in flight. *)

type t

val wire_size : int
(** 53. *)

val header_size : int
(** 5. *)

val payload_size : int
(** 48. *)

val aal_overhead : int
(** 4. *)

val data_size : int
(** 44 = [payload_size - aal_overhead]. *)

val view :
  vci:int ->
  seq:int ->
  eom:bool ->
  last_of_pdu:bool ->
  ?marked:bool ->
  Bytes.t ->
  off:int ->
  t
(** A cell whose data is the {!data_size} bytes at [off] in the buffer.
    The buffer must not be written afterwards. [vci] and [seq] must fit
    16 bits. *)

val make :
  vci:int ->
  seq:int ->
  eom:bool ->
  last_of_pdu:bool ->
  ?marked:bool ->
  Bytes.t ->
  t
(** A cell viewing the whole of [data], which must be exactly
    {!data_size} bytes. [marked] (default [false]) is the congestion
    bit — hosts never set it at origin; switches do. *)

(** {2 Header fields} *)

val vci : t -> int
(** Virtual circuit identifier, 16 bits. *)

val seq : t -> int
(** AAL sequence number: index of this cell within its PDU, 16 bits. *)

val eom : t -> bool
(** AAL framing bit: last cell of its (per-link) stream. *)

val last_of_pdu : t -> bool
(** ATM-header framing bit: very last cell of the PDU. *)

val marked : t -> bool
(** ATM-header congestion bit (the EFCI/ECN-CE analogue): set by a switch
    that enqueues the cell into a deep output queue, carried through
    reassembly to the receiving host so its transport can echo congestion
    back to the sender. *)

val relabel : t -> vci:int -> marked:bool -> t
(** The same data under a new VCI and congestion bit: the switch's header
    rewrite. *)

val with_seq : t -> int -> t
(** The same data under a new sequence number. *)

(** {2 Data} *)

val buf : t -> Bytes.t
(** The buffer the cell views. Read only. *)

val off : t -> int
(** Where the cell's data starts in {!buf}. *)

val data : t -> Bytes.t
(** A fresh copy of the cell's data. *)

(** {2 Wire format} *)

val serialize : t -> Bytes.t
(** 53-byte wire image, including the header check byte. *)

val parse : Bytes.t -> (t, string) result
(** Parse a 53-byte wire image; fails on bad length or check byte. The
    cell views the image's data bytes, so the image must not be written
    afterwards. *)

val corrupt : t -> byte:int -> t
(** Copy of the cell with one data byte XORed with [0x5a] — the link-error
    injection primitive. [byte] is an index into the data. The copy has a
    buffer of its own; the original and every cell sharing its buffer are
    unchanged. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Same header and same data bytes, wherever the data is held. *)
