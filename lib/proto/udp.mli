(** UDP with optional data checksumming and the lazy cache-invalidation
    receive discipline.

    The paper's §4 experiments turn UDP checksumming on and off: with it
    off, received data is never touched by the CPU (so receive throughput is
    bus-limited); with it on, every word is read through the data cache,
    which on the DECstation collapses throughput to ~80 Mb/s (memory
    bandwidth) and on the Alpha costs about 15%.

    The checksum is also the end-to-end error check that makes lazy cache
    invalidation (§2.3) safe: when verification fails, the receive path
    invalidates the message's cache lines and re-verifies before declaring
    the datagram corrupt; a success on the second try means the failure was
    stale cache data, not a wire error, and the datagram is delivered. *)

val header_size : int
(** 8 bytes. *)

val protocol_number : int
(** 17, the IP protocol field value. *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable checksum_errors : int;  (** dropped: bad after invalidation *)
  mutable stale_recoveries : int;
      (** failures cured by lazy invalidation + re-verify *)
  mutable no_port_drops : int;
}

type t

val create : Ctx.t -> checksum:bool -> ip:Ip.t -> t
(** [checksum] controls data checksumming in both directions ("UDP-CS" in
    the figures). The host assembly must route IP protocol 17 datagrams to
    {!input}. *)

val input : t -> src:Ip.addr -> Osiris_xkernel.Msg.t -> unit
(** Receive one datagram from IP. Takes ownership of [msg]. *)

val set_checksum : t -> bool -> unit

val bind : t -> port:int -> (src:Ip.addr -> src_port:int -> Osiris_xkernel.Msg.t -> unit) -> unit
(** Register the receiver for a local port. The receiver owns the message
    and must dispose it. *)

val unbind : t -> port:int -> unit

val output :
  t -> dst:Ip.addr -> src_port:int -> dst_port:int -> Osiris_xkernel.Msg.t -> unit
(** Prepend the UDP header (checksumming the payload if enabled) and hand
    to IP. [msg] then belongs to the stack: each IP fragment is a view of
    it that [Driver.send] disposes once the board has fetched the data,
    and the driver unwires [msg]'s pages only then. The caller must not
    dispose [msg] after [output]. *)

val stats : t -> stats

val datagram_image :
  src_port:int -> dst_port:int -> checksum:bool -> Bytes.t -> Bytes.t
(** Pure helper: the on-the-wire datagram (header + payload), optionally
    checksummed, for the fictitious-PDU generator. *)
