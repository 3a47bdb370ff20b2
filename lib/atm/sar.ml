module Crc32 = Osiris_util.Crc32
module Metrics = Osiris_obs.Metrics

type strategy = In_order | Seq_number | Per_link of int

let pp_strategy fmt = function
  | In_order -> Format.pp_print_string fmt "in-order"
  | Seq_number -> Format.pp_print_string fmt "seq-number"
  | Per_link n -> Format.fprintf fmt "per-link(%d)" n

let trailer_size = 8

let framed_len n =
  let needed = n + trailer_size in
  (needed + Cell.data_size - 1) / Cell.data_size * Cell.data_size

let cells_per_pdu n = framed_len n / Cell.data_size

(* The AAL trailer, written in place: [framed] holds [len] payload bytes
   followed by zeros up to its (framed) length. *)
let seal framed ~len =
  let total = Bytes.length framed in
  if total <> framed_len len then invalid_arg "Sar.seal: not a framed length";
  Bytes.set_int32_be framed (total - 8) (Int32.of_int len);
  Bytes.set_int32_be framed (total - 4)
    (Crc32.compute framed ~off:0 ~len:(total - 4))

let frame pdu =
  let n = Bytes.length pdu in
  let out = Bytes.make (framed_len n) '\000' in
  Bytes.blit pdu 0 out 0 n;
  seal out ~len:n;
  out

let trailer_check ~framed_len:total ~crc ~stored_crc ~len_field =
  if total < trailer_size || total mod Cell.data_size <> 0 then
    Error "deframe: bad framed length"
  else if crc <> stored_crc then Error "deframe: CRC mismatch"
  else begin
    let n = Int32.to_int len_field in
    if n < 0 || framed_len n <> total then Error "deframe: bad length field"
    else Ok n
  end

let deframe framed =
  let total = Bytes.length framed in
  if total < trailer_size then Error "deframe: bad framed length"
  else
    trailer_check ~framed_len:total
      ~crc:(Crc32.compute framed ~off:0 ~len:(total - 4))
      ~stored_crc:(Bytes.get_int32_be framed (total - 4))
      ~len_field:(Bytes.get_int32_be framed (total - 8))
    |> Result.map (fun n -> Bytes.sub framed 0 n)

let cell_of_framed ~vci ~nlinks framed k =
  let ncells = Bytes.length framed / Cell.data_size in
  (* The framing (eom) bit marks the last cell of each per-link
     sub-stream: cell k is last on its link iff no later cell maps to the
     same link. *)
  Cell.view ~vci ~seq:k ~eom:(k + nlinks >= ncells)
    ~last_of_pdu:(k = ncells - 1) framed ~off:(k * Cell.data_size)

(* Cells [0..k] of a framed PDU onto [acc], built back to front. *)
let rec cells_upto ~vci ~nlinks framed k acc =
  if k < 0 then acc
  else
    cells_upto ~vci ~nlinks framed (k - 1)
      (cell_of_framed ~vci ~nlinks framed k :: acc)

let segment ~vci ~nlinks pdu =
  if nlinks < 1 then invalid_arg "Sar.segment: nlinks must be >= 1";
  let framed = frame pdu in
  cells_upto ~vci ~nlinks framed ((Bytes.length framed / Cell.data_size) - 1) []

type placement = { offset : int; cell : Cell.t }

type outcome =
  | Placed of placement
  | Completed of placement * int
  | Rejected of string

type t = {
  strategy : strategy;
  max_cells : int;
  mutable received : int;
  mutable total_cells : int; (* -1 until known *)
  mutable next_offset : int; (* In_order *)
  seen : (int, unit) Hashtbl.t; (* Seq_number: seqs received *)
  mutable link_counts : int array; (* Per_link: arrivals per link *)
  mutable link_eom : bool array; (* Per_link: framing bit seen per link *)
  mutable saw_marked : bool; (* any cell of the current PDU carried the
                                congestion bit *)
  mutable completed : int; (* framed length if the last cell placed
                              completed the PDU, else -1 *)
  mutable reason : string; (* why the last rejected cell was rejected *)
}

let create strategy ~max_cells =
  if max_cells <= 0 then invalid_arg "Sar.create: max_cells must be positive";
  (match strategy with
  | Per_link n when n < 1 -> invalid_arg "Sar.create: Per_link needs >= 1 link"
  | _ -> ());
  let nlinks = match strategy with Per_link n -> n | _ -> 1 in
  {
    strategy;
    max_cells;
    received = 0;
    total_cells = -1;
    next_offset = 0;
    seen = Hashtbl.create 64;
    link_counts = Array.make nlinks 0;
    link_eom = Array.make nlinks false;
    saw_marked = false;
    completed = -1;
    reason = "";
  }

let cells_received t = t.received

let marked_seen t = t.saw_marked

let in_progress t = t.received > 0

let all_links_finished t =
  match t.strategy with
  | Per_link _ -> Array.for_all (fun b -> b) t.link_eom
  | In_order | Seq_number -> false

let link_finished t ~link =
  match t.strategy with
  | Per_link _ ->
      link >= 0 && link < Array.length t.link_eom && t.link_eom.(link)
  | In_order | Seq_number -> false

let reset t =
  t.received <- 0;
  t.total_cells <- -1;
  t.next_offset <- 0;
  Hashtbl.reset t.seen;
  Array.fill t.link_counts 0 (Array.length t.link_counts) 0;
  Array.fill t.link_eom 0 (Array.length t.link_eom) false;
  t.saw_marked <- false;
  t.completed <- -1

(* [place] answers with a plain int: the byte offset at which to store
   the cell's data, or [rejected] with the reason left in [t.reason]. A
   completing placement also leaves the framed length in [t.completed]. *)
let rejected = -1

let reject t why =
  t.reason <- why;
  rejected

let complete t ~offset =
  t.completed <- t.total_cells * Cell.data_size;
  offset

let place_in_order t cell =
  if t.received >= t.max_cells then reject t "reassembly overflow"
  else begin
    let offset = t.next_offset in
    t.next_offset <- t.next_offset + Cell.data_size;
    t.received <- t.received + 1;
    if Cell.last_of_pdu cell || Cell.eom cell then begin
      t.total_cells <- t.received;
      complete t ~offset
    end
    else offset
  end

let place_seq t cell =
  let seq = Cell.seq cell in
  if seq >= t.max_cells then reject t "sequence number out of window"
  else if Hashtbl.mem t.seen seq then reject t "duplicate sequence number"
  else begin
    (Hashtbl.replace t.seen seq ()
    [@osiris.alloc_ok
      "dedup table grows one bucket per distinct sequence number and is \
       recycled at PDU reset"]);
    t.received <- t.received + 1;
    if Cell.last_of_pdu cell then t.total_cells <- seq + 1;
    let offset = seq * Cell.data_size in
    if t.total_cells >= 0 && t.received = t.total_cells then
      complete t ~offset
    else if t.total_cells >= 0 && t.received > t.total_cells then
      reject t "more cells than the PDU length allows"
    else offset
  end

(* True when links [l..n-1] have all shown their framing bit. Top level
   so the completion test allocates no closure. *)
let rec links_framed t l n = l >= n || (t.link_eom.(l) && links_framed t (l + 1) n)

let place_per_link t ~link cell =
  let nlinks = Array.length t.link_counts in
  if link < 0 || link >= nlinks then reject t "unknown physical link"
  else if t.received >= t.max_cells then reject t "reassembly overflow"
  else begin
    let arrival = t.link_counts.(link) in
    let k = (arrival * nlinks) + link in
    t.link_counts.(link) <- arrival + 1;
    t.received <- t.received + 1;
    if Cell.eom cell then t.link_eom.(link) <- true;
    if Cell.last_of_pdu cell then t.total_cells <- k + 1;
    let offset = k * Cell.data_size in
    (* Complete when the total is known, every cell has arrived, and every
       link that carries cells of this PDU has shown its framing bit. *)
    if t.total_cells >= 0 && t.received >= t.total_cells then begin
      let links_used = min nlinks t.total_cells in
      if t.received > t.total_cells then
        reject t "more cells than the PDU length allows"
      else if links_framed t 0 links_used then complete t ~offset
      else offset
    end
    else offset
  end

(* Reassembly is per-VC, with many short-lived instances; account at the
   module level rather than per instance. *)
let m_cells_pushed = Metrics.counter "sar.cells_pushed"
let m_pdus_completed = Metrics.counter "sar.pdus_completed"
let m_rejects = Metrics.counter "sar.rejects"

let place t ~link cell =
  Metrics.incr m_cells_pushed;
  if Cell.marked cell then t.saw_marked <- true;
  t.completed <- -1;
  let offset =
    match t.strategy with
    | In_order -> place_in_order t cell
    | Seq_number -> place_seq t cell
    | Per_link _ -> place_per_link t ~link cell
  in
  if offset = rejected then Metrics.incr m_rejects
  else if t.completed >= 0 then Metrics.incr m_pdus_completed;
  offset

let completed_len t = t.completed

let reject_reason t = t.reason

let push t ~link cell =
  let offset = place t ~link cell in
  if offset = rejected then
    (Rejected t.reason
    [@osiris.alloc_ok
      "rejects happen only for faulted or overflowing cells and carry a \
       static reason string; only the constructor box allocates"])
  else if t.completed >= 0 then
    (Completed ({ offset; cell }, t.completed)
    [@osiris.alloc_ok
      "the boxed outcome is this API's contract; the receive processor \
       uses the allocation-free [place]"])
  else
    (Placed { offset; cell }
    [@osiris.alloc_ok
      "the boxed outcome is this API's contract; the receive processor \
       uses the allocation-free [place]"])
