(* Memory is sparse: a page's bytes exist only once something writes to it.
   Until then its slot holds [zero], one page of zeros shared by every
   untouched page and never written, so a read needs no branch and never
   allocates. A host pays only for the frames its datapath fills, as the
   paper's software only touches the frames it maps (§2.2). Every write
   reaches [pages] through [writable].

   Storage pages are [mask + 1 = 1 lsl shift] bytes: the frame size when
   that is a power of two, as on every machine profile, else its largest
   power-of-two divisor. An address then splits into page and offset by a
   shift and a mask rather than a division. *)

type t = {
  pages : Bytes.t array;  (* [zero] until first written *)
  zero : Bytes.t;
  shift : int;
  mask : int;
  size : int;
  page_size : int;
  nframes : int;
  mutable resident : int;  (* pages with bytes of their own *)
  (* Free frames: a LIFO stack whose top, [stack.(nfree - 1)], is the next
     frame handed out, plus one membership bit per frame. *)
  stack : int array;
  mutable nfree : int;
  free_bits : Bytes.t;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?scramble ~size ~page_size () =
  if size <= 0 || page_size <= 0 || size mod page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of page_size";
  let nframes = size / page_size in
  let order = Array.init nframes (fun i -> i) in
  (match scramble with Some rng -> Osiris_util.Rng.shuffle rng order | None -> ());
  let store = page_size land -page_size in
  let zero = Bytes.make store '\000' in
  {
    pages = Array.make (size / store) zero;
    zero;
    shift = log2 store;
    mask = store - 1;
    size;
    page_size;
    nframes;
    resident = 0;
    (* [order.(0)] is handed out first, so it goes on top. *)
    stack = Array.init nframes (fun i -> order.(nframes - 1 - i));
    nfree = nframes;
    free_bits = Bytes.make ((nframes + 7) / 8) '\255';
  }

let size t = t.size
let page_size t = t.page_size
let frames t = t.nframes
let free_frames t = t.nfree
let resident_bytes t = t.resident lsl t.shift

(* ------------------------------------------------------------------ *)
(* Frame allocator. *)

let is_free t f =
  Char.code (Bytes.get t.free_bits (f lsr 3)) land (1 lsl (f land 7)) <> 0

let set_free t f free =
  let byte = Char.code (Bytes.get t.free_bits (f lsr 3)) in
  let bit = 1 lsl (f land 7) in
  Bytes.set t.free_bits (f lsr 3)
    (Char.chr (if free then byte lor bit else byte land lnot bit))

let alloc_frame t =
  if t.nfree = 0 then raise Out_of_memory;
  t.nfree <- t.nfree - 1;
  let f = t.stack.(t.nfree) in
  set_free t f false;
  f * t.page_size

let alloc_contiguous t ~nframes =
  if nframes <= 0 then invalid_arg "Phys_mem.alloc_contiguous";
  let rec find base =
    if base + nframes > t.nframes then None
    else begin
      let rec run i = i = nframes || (is_free t (base + i) && run (i + 1)) in
      if run 0 then Some base else find (base + 1)
    end
  in
  match find 0 with
  | None -> None
  | Some base ->
      for f = base to base + nframes - 1 do
        set_free t f false
      done;
      (* Drop the run from the stack; the other frames keep their order. *)
      let kept = ref 0 in
      for i = 0 to t.nfree - 1 do
        let f = t.stack.(i) in
        if f < base || f >= base + nframes then begin
          t.stack.(!kept) <- f;
          incr kept
        end
      done;
      t.nfree <- !kept;
      Some (base * t.page_size)

let free_frame t addr =
  if addr mod t.page_size <> 0 then
    invalid_arg "Phys_mem.free_frame: unaligned address";
  let f = addr / t.page_size in
  if f < 0 || f >= t.nframes then invalid_arg "Phys_mem.free_frame: bad frame";
  if is_free t f then invalid_arg "Phys_mem.free_frame: double free";
  set_free t f true;
  t.stack.(t.nfree) <- f;
  t.nfree <- t.nfree + 1

(* ------------------------------------------------------------------ *)
(* Raw access. *)

let out_of_bounds addr len =
  invalid_arg
    (Printf.sprintf "Phys_mem: access [%#x,+%d) out of bounds" addr len)

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    (out_of_bounds addr len
    [@osiris.alloc_ok "cold out-of-bounds path: formats its message, then raises"])

(* [Bytes.blit]'s own check on the [Bytes.t] side of a copy, made before
   the first page is copied so a bad range writes nothing. *)
let check_bytes b off len =
  if off < 0 || off > Bytes.length b - len then
    (invalid_arg "Bytes.blit" [@osiris.alloc_ok "cold out-of-bounds path: raises"])

let page t addr = t.pages.(addr lsr t.shift)

(* The page holding [addr], given bytes of its own on first use. *)
let writable t addr =
  let p = addr lsr t.shift in
  let page = t.pages.(p) in
  if page != t.zero then page
  else begin
    let page = Bytes.make (t.mask + 1) '\000' in
    t.pages.(p) <- page;
    t.resident <- t.resident + 1;
    page
  end

(* [Stdlib.min] is polymorphic and compares through the runtime. *)
let imin (a : int) b = if a < b then a else b

(* How many of the [len] bytes from [addr] lie in [addr]'s page. *)
let chunk t addr len = imin len (t.mask + 1 - (addr land t.mask))

let get t addr = Char.code (Bytes.get (page t addr) (addr land t.mask))

let set t addr v =
  Bytes.set (writable t addr) (addr land t.mask) (Char.unsafe_chr (v land 0xff))

let read_byte t addr =
  check t addr 1;
  get t addr

let write_byte t addr v =
  check t addr 1;
  set t addr v

let read_u32 t addr =
  check t addr 4;
  if chunk t addr 4 = 4 then Bytes.get_int32_be (page t addr) (addr land t.mask)
  else
    (* straddles two pages *)
    Int32.of_int
      ((get t addr lsl 24)
      lor (get t (addr + 1) lsl 16)
      lor (get t (addr + 2) lsl 8)
      lor get t (addr + 3))

let write_u32 t addr v =
  check t addr 4;
  if chunk t addr 4 = 4 then
    Bytes.set_int32_be (writable t addr) (addr land t.mask) v
  else begin
    let v = Int32.to_int v in
    set t addr (v lsr 24);
    set t (addr + 1) (v lsr 16);
    set t (addr + 2) (v lsr 8);
    set t (addr + 3) v
  end

let rec copy_in t ~src ~src_off ~dst ~len =
  if len > 0 then begin
    let n = chunk t dst len in
    Bytes.blit src src_off (writable t dst) (dst land t.mask) n;
    copy_in t ~src ~src_off:(src_off + n) ~dst:(dst + n) ~len:(len - n)
  end

let rec copy_out t ~src ~dst ~dst_off ~len =
  if len > 0 then begin
    let n = chunk t src len in
    Bytes.blit (page t src) (src land t.mask) dst dst_off n;
    copy_out t ~src:(src + n) ~dst ~dst_off:(dst_off + n) ~len:(len - n)
  end

let blit_from_bytes t ~src ~src_off ~dst ~len =
  check t dst len;
  check_bytes src src_off len;
  copy_in t ~src ~src_off ~dst ~len

let blit_to_bytes t ~src ~dst ~dst_off ~len =
  check t src len;
  check_bytes dst dst_off len;
  copy_out t ~src ~dst ~dst_off ~len

(* [n] bytes that lie within one source and one destination page. *)
let move t ~src ~dst n =
  let dpage = writable t dst in
  Bytes.blit (page t src) (src land t.mask) dpage (dst land t.mask) n

let rec move_up t ~src ~dst ~len =
  if len > 0 then begin
    let n = imin (chunk t src len) (chunk t dst len) in
    move t ~src ~dst n;
    move_up t ~src:(src + n) ~dst:(dst + n) ~len:(len - n)
  end

(* The same, from the top down: the [len] bytes end at [src] and [dst]. *)
let rec move_down t ~src ~dst ~len =
  if len > 0 then begin
    let below e = ((e - 1) land t.mask) + 1 in
    let n = imin len (imin (below src) (below dst)) in
    move t ~src:(src - n) ~dst:(dst - n) n;
    move_down t ~src:(src - n) ~dst:(dst - n) ~len:(len - n)
  end

(* Copying upward, or downward when the destination overlaps the source
   from above, reads every source byte before it is overwritten: that is
   [Bytes.blit]'s behaviour on overlap, without a temporary buffer. *)
let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if dst <= src || dst >= src + len then move_up t ~src ~dst ~len
  else move_down t ~src:(src + len) ~dst:(dst + len) ~len

let rec fill_pages t addr len c =
  if len > 0 then begin
    let n = chunk t addr len in
    (* zeroing an untouched page leaves it untouched *)
    if c <> '\000' || page t addr != t.zero then
      Bytes.fill (writable t addr) (addr land t.mask) n c;
    fill_pages t (addr + n) (len - n) c
  end

let fill t ~addr ~len c =
  check t addr len;
  fill_pages t addr len c

(* Whether [a.[ai..ai+n)] and [b.[bi..bi+n)] hold the same bytes, eight at
   a time, then one at a time. *)
let rec slice_equal a ai b bi n =
  if n >= 8 then
    Bytes.get_int64_ne a ai = Bytes.get_int64_ne b bi
    && slice_equal a (ai + 8) b (bi + 8) (n - 8)
  else
    n = 0
    || (Bytes.get a ai = Bytes.get b bi && slice_equal a (ai + 1) b (bi + 1) (n - 1))

let rec pages_equal t addr b off len =
  len = 0
  ||
  let n = chunk t addr len in
  slice_equal (page t addr) (addr land t.mask) b off n
  && pages_equal t (addr + n) b (off + n) (len - n)

let region_equal t ~addr b ~off ~len =
  check t addr len;
  if off < 0 || off > Bytes.length b - len then
    (invalid_arg "Phys_mem.region_equal: range outside the bytes"
    [@osiris.alloc_ok "cold out-of-bounds path: raises"]);
  pages_equal t addr b off len

let rec fold_pages t addr len f acc =
  if len = 0 then acc
  else begin
    let n = chunk t addr len in
    let acc = f (page t addr) (addr land t.mask) n acc in
    fold_pages t (addr + n) (len - n) f acc
  end

let fold_chunks t ~addr ~len f acc =
  check t addr len;
  fold_pages t addr len f acc

let bytes_of_region t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  copy_out t ~src:addr ~dst:out ~dst_off:0 ~len;
  out

let bytes_of_pbufs t bufs =
  let total = Pbuf.total_len bufs in
  let out = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun (b : Pbuf.t) ->
      blit_to_bytes t ~src:b.Pbuf.addr ~dst:out ~dst_off:!off ~len:b.Pbuf.len;
      off := !off + b.Pbuf.len)
    bufs;
  out
