(* Tests for cells and segmentation/reassembly, including the §2.6 skew
   tolerance properties. *)

open Osiris_atm
module Rng = Osiris_util.Rng

let cell_gen =
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Cell.pp c)
    QCheck.Gen.(
      let* vci = 0 -- 0xffff in
      let* seq = 0 -- 0xffff in
      let* eom = bool in
      let* last = bool in
      let* s = string_size (return Cell.data_size) in
      return (Cell.make ~vci ~seq ~eom ~last_of_pdu:last (Bytes.of_string s)))

let cell_wire_roundtrip =
  QCheck.Test.make ~name:"cell: serialize/parse roundtrip" ~count:300 cell_gen
    (fun c ->
      match Cell.parse (Cell.serialize c) with
      | Ok c' -> Cell.equal c c'
      | Error _ -> false)

(* Header fields at their bounds: the 16-bit extremes (and the bit just
   below and above the halfway mark) of vci and seq, every flag
   combination, any data offset. *)
let header_gen =
  let field =
    QCheck.Gen.(
      oneof [ oneofl [ 0; 1; 0x7fff; 0x8000; 0xfffe; 0xffff ]; 0 -- 0xffff ])
  in
  QCheck.Gen.(
    let* vci = field in
    let* seq = field in
    let* eom = bool in
    let* last = bool in
    let* marked = bool in
    let* off = 0 -- 100 in
    return (vci, seq, eom, last, marked, off))

let cell_header_packing =
  QCheck.Test.make ~name:"cell: header fields survive packing" ~count:500
    (QCheck.make header_gen) (fun (vci, seq, eom, last, marked, off) ->
      let buf =
        Bytes.init (off + Cell.data_size) (fun i -> Char.chr (i land 0xff))
      in
      let c = Cell.view ~vci ~seq ~eom ~last_of_pdu:last ~marked buf ~off in
      let fields c =
        (Cell.vci c, Cell.seq c, Cell.eom c, Cell.last_of_pdu c, Cell.marked c)
      in
      let flip16 v = 0xffff - v in
      fields c = (vci, seq, eom, last, marked)
      && Cell.off c = off
      && fields (Cell.relabel c ~vci:(flip16 vci) ~marked:(not marked))
         = (flip16 vci, seq, eom, last, not marked)
      && fields (Cell.with_seq c (flip16 seq))
         = (vci, flip16 seq, eom, last, marked)
      &&
      match Cell.parse (Cell.serialize c) with
      | Ok c' -> fields c' = fields c && Cell.equal c c'
      | Error _ -> false)

let test_cell_field_range () =
  let data = Bytes.make Cell.data_size 'r' in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "vci 0x10000" (fun () ->
      Cell.make ~vci:0x10000 ~seq:0 ~eom:false ~last_of_pdu:false data);
  rejects "negative seq" (fun () ->
      Cell.make ~vci:0 ~seq:(-1) ~eom:false ~last_of_pdu:false data);
  rejects "view past the buffer" (fun () ->
      Cell.view ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false data ~off:1)

(* Cells of one PDU view one framed buffer. *)
let pdu_cells () =
  let pdu = Bytes.init 300 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let cells = Array.of_list (Sar.segment ~vci:7 ~nlinks:4 pdu) in
  (Cell.buf cells.(0), cells)

let test_cell_views_share () =
  let framed, cells = pdu_cells () in
  Array.iteri
    (fun k c ->
      Alcotest.(check bool) "same buffer" true (Cell.buf c == framed);
      Alcotest.(check int) "offset" (k * Cell.data_size) (Cell.off c);
      Alcotest.(check bytes) "data"
        (Bytes.sub framed (k * Cell.data_size) Cell.data_size)
        (Cell.data c))
    cells;
  Alcotest.(check bytes) "framed = Sar.frame"
    (Sar.frame (Bytes.sub framed 0 300))
    framed

let test_cell_corrupt_copies () =
  let framed, cells = pdu_cells () in
  let before = Bytes.copy framed in
  let datas = Array.map Cell.data cells in
  let c = Cell.corrupt cells.(3) ~byte:5 in
  Alcotest.(check bytes) "framed buffer unchanged" before framed;
  Array.iteri
    (fun k c ->
      Alcotest.(check bytes) "sibling unchanged" datas.(k) (Cell.data c))
    cells;
  Alcotest.(check bool) "own buffer" false (Cell.buf c == framed);
  let d = Cell.data c in
  Alcotest.(check char) "the byte flipped"
    (Char.chr (Char.code (Bytes.get datas.(3) 5) lxor 0x5a))
    (Bytes.get d 5);
  Bytes.set d 5 (Bytes.get datas.(3) 5);
  Alcotest.(check bytes) "only that byte" datas.(3) d;
  Alcotest.(check bool) "header kept" true
    (Cell.seq c = 3 && Cell.vci c = 7 && not (Cell.equal c cells.(3)))

let test_cell_view_wire_roundtrip () =
  let _, cells = pdu_cells () in
  Array.iter
    (fun c ->
      match Cell.parse (Cell.serialize c) with
      | Error e -> Alcotest.fail e
      | Ok c' ->
          Alcotest.(check bool) "equal" true (Cell.equal c c');
          Alcotest.(check bool) "parsed cell views the wire image" true
            (Cell.off c' = 9 && Bytes.length (Cell.buf c') = Cell.wire_size))
    cells;
  Alcotest.(check bool) "different data" false (Cell.equal cells.(1) cells.(2))

let test_cell_header_check () =
  let c =
    Cell.make ~vci:42 ~seq:7 ~eom:true ~last_of_pdu:false
      (Bytes.make Cell.data_size 'x')
  in
  let w = Cell.serialize c in
  Bytes.set w 1 (Char.chr (Char.code (Bytes.get w 1) lxor 1));
  (match Cell.parse w with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted header accepted");
  Alcotest.(check int) "wire size" 53 Cell.wire_size

let test_cell_sizes () =
  Alcotest.(check int) "payload" 48 Cell.payload_size;
  Alcotest.(check int) "data" 44 Cell.data_size;
  Alcotest.(check int) "aal overhead" 4 Cell.aal_overhead

let test_framed_len () =
  Alcotest.(check int) "1 byte fits one cell" 44 (Sar.framed_len 1);
  Alcotest.(check int) "36 bytes fit one cell" 44 (Sar.framed_len 36);
  Alcotest.(check int) "37 bytes need two" 88 (Sar.framed_len 37);
  Alcotest.(check int) "cells per pdu" 2 (Sar.cells_per_pdu 37)

let frame_roundtrip =
  QCheck.Test.make ~name:"sar: frame/deframe identity" ~count:300
    QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 500)))
    (fun pdu ->
      match Sar.deframe (Sar.frame pdu) with
      | Ok pdu' -> Bytes.equal pdu pdu'
      | Error _ -> false)

let frame_detects_corruption =
  QCheck.Test.make ~name:"sar: CRC catches corruption" ~count:300
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(1 -- 300))) small_nat)
    (fun (pdu, i) ->
      let framed = Sar.frame pdu in
      let i = i mod Bytes.length framed in
      Bytes.set framed i
        (Char.chr (Char.code (Bytes.get framed i) lxor 0x5a));
      match Sar.deframe framed with Error _ -> true | Ok _ -> false)

(* Reassemble a list of (link, cell) arrivals and return the recovered
   payload (if the PDU completes and deframes). *)
let reassemble strategy arrivals pdu_len =
  let sar = Sar.create strategy ~max_cells:4096 in
  let framed = Bytes.make (Sar.framed_len pdu_len) '\000' in
  let result = ref None in
  List.iter
    (fun (link, cell) ->
      match Sar.push sar ~link cell with
      | Sar.Rejected r -> failwith ("rejected: " ^ r)
      | Sar.Placed p ->
          Bytes.blit (Cell.data p.Sar.cell) 0 framed p.Sar.offset Cell.data_size
      | Sar.Completed (p, total) ->
          Bytes.blit (Cell.data p.Sar.cell) 0 framed p.Sar.offset Cell.data_size;
          result := Some total)
    arrivals;
  match !result with
  | None -> Error "incomplete"
  | Some total -> Sar.deframe (Bytes.sub framed 0 total)

let in_order_arrivals ~nlinks cells =
  List.map (fun (c : Cell.t) -> (Cell.seq c mod nlinks, c)) cells

(* A random member of the skew class: per-link FIFO preserved, links
   interleaved arbitrarily. *)
let skewed_arrivals ~nlinks ~rng cells =
  let queues = Array.make nlinks [] in
  List.iter
    (fun (c : Cell.t) ->
      let l = Cell.seq c mod nlinks in
      queues.(l) <- c :: queues.(l))
    cells;
  let queues = Array.map List.rev queues in
  let out = ref [] in
  let remaining () =
    Array.exists (fun q -> q <> []) queues
  in
  while remaining () do
    let l = Rng.int rng nlinks in
    match queues.(l) with
    | [] -> ()
    | c :: rest ->
        queues.(l) <- rest;
        out := (l, c) :: !out
  done;
  List.rev !out

let pdu_of_len n = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff))

let sar_identity_in_order =
  QCheck.Test.make ~name:"sar: segment |> reassemble = id (in order)"
    ~count:100
    QCheck.(int_range 1 2000)
    (fun n ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:1 pdu in
      match reassemble Sar.In_order (in_order_arrivals ~nlinks:1 cells) n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let sar_identity_per_link_skewed =
  QCheck.Test.make ~name:"sar: per-link reassembly tolerates any skew"
    ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 0 1000))
    (fun (n, seed) ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
      let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed) cells in
      match reassemble (Sar.Per_link 4) arrivals n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let sar_identity_seq_skewed =
  QCheck.Test.make ~name:"sar: seq-number reassembly tolerates any skew"
    ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 0 1000))
    (fun (n, seed) ->
      let pdu = pdu_of_len n in
      let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
      let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed) cells in
      match reassemble Sar.Seq_number arrivals n with
      | Ok out -> Bytes.equal out pdu
      | Error _ -> false)

let test_in_order_breaks_under_skew () =
  (* A deterministically skewed 10-cell PDU mis-placed by in-order
     reassembly: either the CRC catches it or the PDU never completes —
     data is never silently corrupted only if the CRC fails. *)
  let n = 400 in
  let pdu = pdu_of_len n in
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  let arrivals = skewed_arrivals ~nlinks:4 ~rng:(Rng.create ~seed:2) cells in
  Alcotest.(check bool) "arrival order differs" true
    (arrivals <> in_order_arrivals ~nlinks:4 cells);
  match
    try reassemble Sar.In_order arrivals n with Failure _ -> Error "rejected"
  with
  | Ok out -> Alcotest.(check bool) "if it passes CRC it is the PDU" true
                (Bytes.equal out pdu)
  | Error _ -> ()

let test_per_link_framing_bits () =
  let pdu = pdu_of_len 400 in
  (* 400 bytes -> 10 cells on 4 links: last cell of each link is framed. *)
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  Alcotest.(check int) "cell count" 10 (List.length cells);
  let eoms =
    List.filter_map
      (fun (c : Cell.t) -> if Cell.eom c then Some (Cell.seq c) else None)
      cells
  in
  Alcotest.(check (list int)) "framing on last cell per link" [ 6; 7; 8; 9 ]
    eoms;
  let last = List.nth cells 9 in
  Alcotest.(check bool) "very-last bit" true (Cell.last_of_pdu last)

let test_short_pdu_single_cell () =
  (* A PDU shorter than the stripe width: the ATM-header last-of-pdu bit
     covers it (paper §2.6). *)
  let pdu = pdu_of_len 10 in
  let cells = Sar.segment ~vci:5 ~nlinks:4 pdu in
  Alcotest.(check int) "one cell" 1 (List.length cells);
  match reassemble (Sar.Per_link 4) (in_order_arrivals ~nlinks:4 cells) 10 with
  | Ok out -> Alcotest.(check bool) "roundtrip" true (Bytes.equal out pdu)
  | Error e -> Alcotest.fail e

let test_seq_duplicate_rejected () =
  let pdu = pdu_of_len 100 in
  let cells = Sar.segment ~vci:5 ~nlinks:1 pdu in
  let sar = Sar.create Sar.Seq_number ~max_cells:64 in
  let first = List.hd cells in
  (match Sar.push sar ~link:0 first with
  | Sar.Placed _ -> ()
  | _ -> Alcotest.fail "first cell placed");
  match Sar.push sar ~link:0 first with
  | Sar.Rejected _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_link_finished () =
  let pdu = pdu_of_len 400 in
  let cells = Array.of_list (Sar.segment ~vci:5 ~nlinks:4 pdu) in
  let sar = Sar.create (Sar.Per_link 4) ~max_cells:64 in
  (* Feed link 2's cells only: 2 and 6 (framed). *)
  ignore (Sar.push sar ~link:2 cells.(2));
  Alcotest.(check bool) "not finished yet" false
    (Sar.link_finished sar ~link:2);
  ignore (Sar.push sar ~link:2 cells.(6));
  Alcotest.(check bool) "finished after framing bit" true
    (Sar.link_finished sar ~link:2);
  Alcotest.(check bool) "in progress" true (Sar.in_progress sar)

let suite =
  [
    QCheck_alcotest.to_alcotest cell_wire_roundtrip;
    Alcotest.test_case "cell: header check byte" `Quick test_cell_header_check;
    QCheck_alcotest.to_alcotest cell_header_packing;
    Alcotest.test_case "cell: field ranges checked" `Quick
      test_cell_field_range;
    Alcotest.test_case "cell: a PDU's cells view one buffer" `Quick
      test_cell_views_share;
    Alcotest.test_case "cell: corrupt copies, siblings intact" `Quick
      test_cell_corrupt_copies;
    Alcotest.test_case "cell: view at an offset round-trips the wire" `Quick
      test_cell_view_wire_roundtrip;
    Alcotest.test_case "cell: sizes" `Quick test_cell_sizes;
    Alcotest.test_case "sar: framed length arithmetic" `Quick test_framed_len;
    QCheck_alcotest.to_alcotest frame_roundtrip;
    QCheck_alcotest.to_alcotest frame_detects_corruption;
    QCheck_alcotest.to_alcotest sar_identity_in_order;
    QCheck_alcotest.to_alcotest sar_identity_per_link_skewed;
    QCheck_alcotest.to_alcotest sar_identity_seq_skewed;
    Alcotest.test_case "sar: in-order is unsafe under skew" `Quick
      test_in_order_breaks_under_skew;
    Alcotest.test_case "sar: per-link framing bits" `Quick
      test_per_link_framing_bits;
    Alcotest.test_case "sar: sub-stripe PDU" `Quick test_short_pdu_single_cell;
    Alcotest.test_case "sar: duplicate seq rejected" `Quick
      test_seq_duplicate_rejected;
    Alcotest.test_case "sar: link_finished tracking" `Quick test_link_finished;
  ]
