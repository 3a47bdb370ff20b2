(* A cell is a view: one immediate header word plus the 44 data bytes at
   [off] in [buf]. Header layout, low bits first: vci (16), seq (16),
   eom, last_of_pdu, marked. The buffer is shared with every other cell
   cut from the same framed PDU and is never written once cells view it;
   anything that would change a cell's data copies it first. *)
type t = { hdr : int; buf : Bytes.t; off : int }

let wire_size = 53
let header_size = 5
let payload_size = 48
let aal_overhead = 4
let data_size = payload_size - aal_overhead

let eom_bit = 1 lsl 32
let last_bit = 1 lsl 33
let marked_bit = 1 lsl 34

let header ~vci ~seq ~eom ~last_of_pdu ~marked =
  vci lor (seq lsl 16)
  lor (if eom then eom_bit else 0)
  lor (if last_of_pdu then last_bit else 0)
  lor if marked then marked_bit else 0

let vci c = c.hdr land 0xffff
let seq c = (c.hdr lsr 16) land 0xffff
let eom c = c.hdr land eom_bit <> 0
let last_of_pdu c = c.hdr land last_bit <> 0
let marked c = c.hdr land marked_bit <> 0
let buf c = c.buf
let off c = c.off

let check_field what v =
  if v < 0 || v > 0xffff then invalid_arg ("Cell: " ^ what ^ " out of range")

let view ~vci ~seq ~eom ~last_of_pdu ?(marked = false) buf ~off =
  check_field "vci" vci;
  check_field "seq" seq;
  if off < 0 || off > Bytes.length buf - data_size then
    invalid_arg "Cell.view: the data must lie inside the buffer";
  { hdr = header ~vci ~seq ~eom ~last_of_pdu ~marked; buf; off }

let make ~vci ~seq ~eom ~last_of_pdu ?marked data =
  if Bytes.length data <> data_size then
    invalid_arg "Cell.make: data must be exactly 44 bytes";
  view ~vci ~seq ~eom ~last_of_pdu ?marked data ~off:0

let relabel c ~vci ~marked =
  check_field "vci" vci;
  let hdr = c.hdr land lnot (0xffff lor marked_bit) lor vci in
  { c with hdr = (if marked then hdr lor marked_bit else hdr) }

let with_seq c s =
  check_field "seq" s;
  { c with hdr = c.hdr land lnot (0xffff lsl 16) lor (s lsl 16) }

let data c = Bytes.sub c.buf c.off data_size

let header_check b =
  (* XOR of the first four header bytes: a poor man's HEC, enough to catch
     single-byte header corruption in tests. *)
  Char.code (Bytes.get b 0)
  lxor Char.code (Bytes.get b 1)
  lxor Char.code (Bytes.get b 2)
  lxor Char.code (Bytes.get b 3)

let aal_check b off =
  Char.code (Bytes.get b off)
  lxor Char.code (Bytes.get b (off + 1))
  lxor Char.code (Bytes.get b (off + 2))

let serialize c =
  let b = Bytes.create wire_size in
  (* ATM header: vci (2B), PT flags, reserved, check. *)
  Bytes.set b 0 (Char.chr (vci c lsr 8));
  Bytes.set b 1 (Char.chr (vci c land 0xff));
  Bytes.set b 2
    (Char.chr ((if last_of_pdu c then 1 else 0) lor if marked c then 2 else 0));
  Bytes.set b 3 '\000';
  Bytes.set b 4 (Char.chr (header_check b));
  (* AAL header: seq (2B), flags, check. *)
  Bytes.set b 5 (Char.chr (seq c lsr 8));
  Bytes.set b 6 (Char.chr (seq c land 0xff));
  Bytes.set b 7 (Char.chr (if eom c then 1 else 0));
  Bytes.set b 8 (Char.chr (aal_check b 5));
  Bytes.blit c.buf c.off b 9 data_size;
  b

let parse b =
  if Bytes.length b <> wire_size then Error "cell: bad wire size"
  else if Char.code (Bytes.get b 4) <> header_check b then
    Error "cell: ATM header check failed"
  else if Char.code (Bytes.get b 8) <> aal_check b 5 then
    Error "cell: AAL header check failed"
  else begin
    let vci = (Char.code (Bytes.get b 0) lsl 8) lor Char.code (Bytes.get b 1) in
    let last_of_pdu = Char.code (Bytes.get b 2) land 1 = 1 in
    let marked = Char.code (Bytes.get b 2) land 2 = 2 in
    let seq = (Char.code (Bytes.get b 5) lsl 8) lor Char.code (Bytes.get b 6) in
    let eom = Char.code (Bytes.get b 7) land 1 = 1 in
    Ok { hdr = header ~vci ~seq ~eom ~last_of_pdu ~marked; buf = b; off = 9 }
  end

let corrupt c ~byte =
  if byte < 0 || byte >= data_size then invalid_arg "Cell.corrupt: bad index";
  let data = data c in
  Bytes.set data byte (Char.chr (Char.code (Bytes.get data byte) lxor 0x5a));
  { c with buf = data; off = 0 }

let pp fmt c =
  Format.fprintf fmt "cell(vci=%d seq=%d%s%s%s)" (vci c) (seq c)
    (if eom c then " eom" else "")
    (if last_of_pdu c then " last" else "")
    (if marked c then " ce" else "")

let rec data_equal a ai b bi n =
  n = 0
  || Bytes.get a ai = Bytes.get b bi && data_equal a (ai + 1) b (bi + 1) (n - 1)

let equal a b =
  a.hdr = b.hdr && data_equal a.buf a.off b.buf b.off data_size
