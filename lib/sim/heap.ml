(* Binary min-heap keyed on (key, seq): the engine's event queue.

   The heap order lives in three int arrays indexed by heap position —
   [h_keys], [h_seqs] and [h_nodes], the node holding that entry's
   value — so a sift compares and moves ints only, and needs no write
   barrier. Values sit in a node pool, [h_vals], indexed by node: the
   only pointer stores are the value going in on [add] and [dummy] going
   over it on [take], so a drained heap retains no user data.

   [h_nodes] is a permutation of the pool: positions [0, h_len) are the
   heap, positions [h_len, capacity) the free nodes. [add] takes the
   free node at position [h_len]; [take] returns the root's node to the
   position the heap's last entry vacated. No separate freelist.

   Sifts move a hole rather than swapping: the entry being placed is
   written once, where the hole stops. *)

type 'a t = {
  dummy : 'a;
  mutable h_keys : int array;
  mutable h_seqs : int array;
  mutable h_nodes : int array;
  mutable h_vals : 'a array; (* [dummy] in every free node *)
  mutable h_len : int;
  mutable last_key : int; (* the pop floor: adds below it are rejected *)
  mutable last_seq : int;
}

(* Nodes in a fresh pool; it doubles from here as the queue deepens. *)
let initial_capacity = 64

let create ~dummy =
  let n = initial_capacity in
  {
    dummy;
    h_keys = Array.make n 0;
    h_seqs = Array.make n 0;
    h_nodes = Array.init n Fun.id;
    h_vals = Array.make n dummy;
    h_len = 0;
    last_key = 0;
    last_seq = 0;
  }

let length t = t.h_len
let is_empty t = t.h_len = 0
let capacity t = Array.length t.h_nodes
let last_key t = t.last_key
let last_seq t = t.last_seq
let next_key t = if t.h_len = 0 then max_int else t.h_keys.(0)

(* Only reached when every node is queued: positions [0, cap) hold the
   heap, and the new nodes [cap, 2 cap) are free in place. *)
let grow t =
  let cap = Array.length t.h_nodes in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.h_keys <- extend t.h_keys 0;
  t.h_seqs <- extend t.h_seqs 0;
  let nodes = t.h_nodes in
  t.h_nodes <- Array.init (2 * cap) (fun i -> if i < cap then nodes.(i) else i);
  t.h_vals <- extend t.h_vals t.dummy

(* Where [(key, seq)] settles when the hole starts at [i] and rises. The
   sifts take the position-ordered arrays as arguments, so a level
   costs its array reads, not a reload of each field first. *)
let rec sift_up (keys : int array) (seqs : int array) (nodes : int array) i
    key seq =
  if i = 0 then 0
  else
    let p = (i - 1) lsr 1 in
    let pk = keys.(p) in
    if key < pk || (key = pk && seq < seqs.(p)) then begin
      keys.(i) <- pk;
      seqs.(i) <- seqs.(p);
      nodes.(i) <- nodes.(p);
      sift_up keys seqs nodes p key seq
    end
    else i

(* Where [(key, seq)] settles when the hole starts at [i] and sinks
   through a heap of [n] entries. *)
let rec sift_down (keys : int array) (seqs : int array) (nodes : int array) i
    n key seq =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let r = l + 1 in
    let c =
      if
        r < n
        && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
      then r
      else l
    in
    let ck = keys.(c) in
    if ck < key || (ck = key && seqs.(c) < seq) then begin
      keys.(i) <- ck;
      seqs.(i) <- seqs.(c);
      nodes.(i) <- nodes.(c);
      sift_down keys seqs nodes c n key seq
    end
    else i

let place t i ~key ~seq node =
  t.h_keys.(i) <- key;
  t.h_seqs.(i) <- seq;
  t.h_nodes.(i) <- node

let add t ~key ~seq value =
  if key < t.last_key then
    (invalid_arg
       (Printf.sprintf "Heap.add: key %d below the pop floor %d" key
          t.last_key)
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  if t.h_len = Array.length t.h_nodes then
    (grow t
    [@osiris.alloc_ok
      "pool warm-up: doubles up to the steady-state queue depth, then \
       nodes are recycled forever"]);
  let i = t.h_len in
  let node = t.h_nodes.(i) in
  t.h_vals.(node) <- value;
  t.h_len <- i + 1;
  place t (sift_up t.h_keys t.h_seqs t.h_nodes i key seq) ~key ~seq node

let take t =
  if t.h_len = 0 then raise Not_found;
  let node = t.h_nodes.(0) in
  let v = t.h_vals.(node) in
  t.h_vals.(node) <- t.dummy;
  t.last_key <- t.h_keys.(0);
  t.last_seq <- t.h_seqs.(0);
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    let key = t.h_keys.(n) and seq = t.h_seqs.(n) and last = t.h_nodes.(n) in
    place t (sift_down t.h_keys t.h_seqs t.h_nodes 0 n key seq) ~key ~seq last
  end;
  t.h_nodes.(n) <- node;
  v

let pop_min t =
  match take t with
  | exception Not_found -> None
  | v -> Some (t.last_key, t.last_seq, v)
