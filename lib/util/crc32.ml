(* Slice-by-8 over native ints. [tables] holds eight 256-entry tables
   back to back: table 0 is the classic bytewise table, and table [k]
   advances a byte's contribution by [k] further zero bytes, so eight
   input bytes fold into the CRC with eight independent lookups. The
   running CRC is an [int] holding 32 bits, which never boxes; the
   [int32] interface converts once per call. *)

let poly = 0xEDB88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] byte (tb : int array) c b i =
  Array.unsafe_get tb ((c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
  lxor (c lsr 8)

(* Whole 8-byte words, then the tail a byte at a time. The little-endian
   load puts the stream's first byte in the low bits, where the
   reflected CRC consumes it first. *)
let rec words (tb : int array) c b i stop =
  if i + 8 > stop then tail tb c b i stop
  else begin
    let lo = (c lxor Int32.to_int (Bytes.get_int32_le b i)) land 0xffffffff in
    let hi = Int32.to_int (Bytes.get_int32_le b (i + 4)) land 0xffffffff in
    let c =
      Array.unsafe_get tb ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get tb ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get tb ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get tb ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get tb ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get tb ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get tb (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get tb (hi lsr 24)
    in
    words tb c b (i + 8) stop
  end

and tail tb c b i stop =
  if i >= stop then c else tail tb (byte tb c b i) b (i + 1) stop

let update_int c b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    (invalid_arg "Crc32: region out of bounds"
    [@osiris.alloc_ok "cold out-of-bounds path: raises"]);
  words tables c b off (off + len)

(* Inlined at the call site so the [int32] round trip stays unboxed
   there too. *)
let[@inline] update crc b ~off ~len =
  Int32.of_int (update_int (Int32.to_int crc land 0xffffffff) b ~off ~len)

let init = 0xFFFFFFFFl

let finalize crc = Int32.logxor crc 0xFFFFFFFFl

let compute b ~off ~len = finalize (update init b ~off ~len)
