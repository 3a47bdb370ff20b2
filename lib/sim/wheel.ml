(* Hierarchical timer wheel: the engine's fast event queue.

   13 levels of 32 slots each (5 bits per level) cover the whole
   non-negative OCaml int key space. A node with key [k] lives at the
   highest level where [k]'s base-32 digit differs from the wheel's
   floor [cur] (the last key handed out by [pop_min]); level-0 slots
   therefore hold exactly one key each, and popping from them is O(1).
   When the minimum sits at a higher level, [pop_min] first cascades
   that one slot down ("settle"), advancing [cur] to the slot's base
   time — always <= the pending minimum, so the add floor never
   overtakes a legal key.

   Ordering contract (shared with {!Heap}): pops come out in
   nondecreasing [(key, seq)] order provided adds at any given key are
   made in increasing [seq] order — which the engine guarantees, since
   [seq] is its monotonically increasing schedule counter. Slot lists
   are FIFO, and the cascade preserves list order, so same-key entries
   keep their insertion (= seq) order without ever comparing seqs.

   Storage is a struct-of-arrays node pool: node [i] is [keys.(i)],
   [seqs.(i)], [next.(i)] and [vals.(i)], and slot lists, the freelist
   and the slot heads/tails are int indices ([nil] = -1 terminates).
   Adds, cascades and takes therefore write ints, which need no write
   barrier; the only pointer stores are the value going in on [add] and
   [dummy] going over it on [take], so a drained wheel retains no user
   data — the property the engine's live-words benchmark and weak-pointer
   tests check. The pool doubles when the freelist runs dry, so it is
   sized by the peak number of pending entries. *)

let bits = 5
let slots = 1 lsl bits
let slot_mask = slots - 1

(* ceil(63 / 5): enough digits for any non-negative int key. *)
let levels = 13

let nil = -1

type 'a t = {
  dummy : 'a;
  mutable w_keys : int array;
  mutable w_seqs : int array;
  mutable w_next : int array; (* slot or freelist link; [nil] terminates *)
  mutable w_vals : 'a array; (* [dummy] in every free node *)
  heads : int array; (* [levels * slots] flattened: level*32 + slot *)
  tails : int array;
  occ : int array; (* per-level bitmask of nonempty slots *)
  mutable cur : int; (* floor: adds below this key are rejected *)
  mutable len : int;
  mutable free : int; (* head of the recycled-node list *)
  mutable min_valid : bool; (* cache for [next_key]/[peek_key] *)
  mutable min_key : int;
  mutable last_key : int; (* (key, seq) of the entry [take] returned *)
  mutable last_seq : int;
}

(* Thread nodes [lo, hi) onto the freelist, lowest index first. *)
let link_free t lo hi =
  for i = hi - 1 downto lo do
    t.w_next.(i) <- t.free;
    t.free <- i
  done

(* Nodes in a fresh pool; it doubles from here as the queue deepens. *)
let initial_capacity = 64

let create ~dummy =
  let capacity = initial_capacity in
  let t =
    {
      dummy;
      w_keys = Array.make capacity 0;
      w_seqs = Array.make capacity 0;
      w_next = Array.make capacity nil;
      w_vals = Array.make capacity dummy;
      heads = Array.make (levels * slots) nil;
      tails = Array.make (levels * slots) nil;
      occ = Array.make levels 0;
      cur = 0;
      len = 0;
      free = nil;
      min_valid = false;
      min_key = 0;
      last_key = 0;
      last_seq = 0;
    }
  in
  link_free t 0 capacity;
  t

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.w_keys

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Only reached when every node is queued: the pool then holds [len]
   live entries and doubles to make room for the next. *)
let grow t =
  let cap = Array.length t.w_keys in
  let ncap = 2 * cap in
  t.w_keys <- extend t.w_keys ncap 0;
  t.w_seqs <- extend t.w_seqs ncap 0;
  t.w_next <- extend t.w_next ncap nil;
  t.w_vals <- extend t.w_vals ncap t.dummy;
  link_free t cap ncap

(* Index of the lowest set bit of a nonzero 32-bit mask (De Bruijn). *)
let debruijn = 0x077CB531

let lsb_table =
  let tb = Array.make 32 0 in
  for i = 0 to 31 do
    tb.(((debruijn lsl i) lsr 27) land 31) <- i
  done;
  tb

let lsb_index m = lsb_table.((((m land -m) * debruijn) lsr 27) land 31)

(* Level of [key] relative to the floor: highest differing base-32
   digit; 0 when equal. Tail recursion instead of refs: [ref] allocates,
   and this runs once per add and once per cascaded node (R5-hot). *)
let rec level_loop x l = if x = 0 then l else level_loop (x lsr bits) (l + 1)
let level_for t key = level_loop ((key lxor t.cur) lsr bits) 0

let append t lvl slot node =
  let idx = (lvl lsl bits) lor slot in
  t.w_next.(node) <- nil;
  if t.heads.(idx) = nil then begin
    t.heads.(idx) <- node;
    t.occ.(lvl) <- t.occ.(lvl) lor (1 lsl slot)
  end
  else t.w_next.(t.tails.(idx)) <- node;
  t.tails.(idx) <- node

let place t node =
  let key = t.w_keys.(node) in
  let lvl = level_for t key in
  append t lvl ((key lsr (bits * lvl)) land slot_mask) node

let add t ~key ~seq value =
  if key < t.cur then
    (invalid_arg
       (Printf.sprintf "Wheel.add: key %d below the pop floor %d" key t.cur)
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  if t.free = nil then
    (grow t
    [@osiris.alloc_ok
      "pool warm-up: doubles up to the steady-state queue depth, then \
       nodes are recycled forever"]);
  let node = t.free in
  t.free <- t.w_next.(node);
  t.w_keys.(node) <- key;
  t.w_seqs.(node) <- seq;
  t.w_vals.(node) <- value;
  place t node;
  t.len <- t.len + 1;
  if t.len = 1 || (t.min_valid && key < t.min_key) then begin
    t.min_valid <- true;
    t.min_key <- key
  end

(* Lowest nonempty level; the global minimum always lives there (keys at
   a lower level agree with [cur] on strictly more high digits, so they
   compare smaller). Caller guarantees [len > 0]. *)
let rec min_level_from t l = if t.occ.(l) = 0 then min_level_from t (l + 1) else l
let min_level t = min_level_from t 0

let rec slot_min t n best =
  if n = nil then best
  else
    let k = t.w_keys.(n) in
    slot_min t t.w_next.(n) (if k < best then k else best)

let next_key t =
  if t.len = 0 then max_int
  else if t.min_valid then t.min_key
  else begin
    let lvl = min_level t in
    let slot = lsb_index t.occ.(lvl) in
    let k =
      if lvl = 0 then t.w_keys.(t.heads.(slot)) (* level-0 slots hold one key *)
      else slot_min t t.heads.((lvl lsl bits) lor slot) max_int
    in
    t.min_valid <- true;
    t.min_key <- k;
    k
  end

let peek_key t = if t.len = 0 then None else Some (next_key t)

(* Cascade the lowest nonempty slot down until the minimum reaches
   level 0; each pass strictly lowers the minimum's level. Returns the
   level-0 slot holding the minimum. *)
let rec settle t =
  let lvl = min_level t in
  let slot = lsb_index t.occ.(lvl) in
  if lvl = 0 then slot
  else begin
    let idx = (lvl lsl bits) lor slot in
    (* Advance the floor to the slot's base time: every key here is
       >= base, and base >= cur, so redistribution lands strictly
       below [lvl] and the add floor never passes a pending key. *)
    let shift = bits * lvl in
    let hi = shift + bits in
    let base =
      (if hi >= Sys.int_size then 0 else (t.cur lsr hi) lsl hi)
      lor (slot lsl shift)
    in
    if base > t.cur then t.cur <- base;
    let head = t.heads.(idx) in
    t.heads.(idx) <- nil;
    t.tails.(idx) <- nil;
    t.occ.(lvl) <- t.occ.(lvl) land lnot (1 lsl slot);
    replace_all t head;
    settle t
  end

and replace_all t n =
  if n <> nil then begin
    let next = t.w_next.(n) in
    place t n;
    replace_all t next
  end

let take t =
  if t.len = 0 then raise Not_found
  else begin
    let slot = settle t in
    let node = t.heads.(slot) in
    let next = t.w_next.(node) in
    t.heads.(slot) <- next;
    if next = nil then begin
      t.tails.(slot) <- nil;
      t.occ.(0) <- t.occ.(0) land lnot (1 lsl slot);
      t.min_valid <- false
    end
    else begin
      (* A level-0 slot holds exactly one key, so whatever remains in
         this slot is still the global minimum. *)
      t.min_valid <- true;
      t.min_key <- t.w_keys.(node)
    end;
    t.len <- t.len - 1;
    let key = t.w_keys.(node) and seq = t.w_seqs.(node) in
    let v = t.w_vals.(node) in
    if key > t.cur then t.cur <- key;
    t.w_vals.(node) <- t.dummy;
    t.w_next.(node) <- t.free;
    t.free <- node;
    t.last_key <- key;
    t.last_seq <- seq;
    v
  end

let last_key t = t.last_key
let last_seq t = t.last_seq

let pop_min t =
  match take t with
  | exception Not_found -> None
  | v -> Some (t.last_key, t.last_seq, v)

let floor t = t.cur
