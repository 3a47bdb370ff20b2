(* A ring of wakers in parallel arrays: process, generation and
   priority at each position, oldest at [first]. Pushing and waking
   store ints and one process pointer, so a queue that has reached its
   working size never allocates. Vacated slots keep their stale process
   pointer until overwritten: a process record is small, and the queue
   only ever holds processes of its own simulation. *)

type t = {
  mutable procs : Process.t array;
  mutable gens : int array;
  mutable prios : int array;
  mutable first : int;
  mutable count : int;
}

let create () = { procs = [||]; gens = [||]; prios = [||]; first = 0; count = 0 }
let length q = q.count
let is_empty q = q.count = 0

(* Capacities are powers of two, so positions wrap with a mask. *)
let pos q i = (q.first + i) land (Array.length q.procs - 1)

let grow q p =
  let cap = Array.length q.procs in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let procs = Array.make ncap p
  and gens = Array.make ncap 0
  and prios = Array.make ncap 0 in
  for i = 0 to q.count - 1 do
    let j = pos q i in
    procs.(i) <- q.procs.(j);
    gens.(i) <- q.gens.(j);
    prios.(i) <- q.prios.(j)
  done;
  q.procs <- procs;
  q.gens <- gens;
  q.prios <- prios;
  q.first <- 0

let set q i p gen prio =
  let j = pos q i in
  q.procs.(j) <- p;
  q.gens.(j) <- gen;
  q.prios.(j) <- prio

(* Shift entries of larger priority one place back until [prio] fits;
   equal priorities stay in arrival order. *)
let rec insert q i p gen prio =
  if i > 0 && q.prios.(pos q (i - 1)) > prio then begin
    let j = pos q (i - 1) in
    set q i q.procs.(j) q.gens.(j) q.prios.(j);
    insert q (i - 1) p gen prio
  end
  else set q i p gen prio

let add q ~priority p =
  if q.count = Array.length q.procs then
    (grow q p
    [@osiris.alloc_ok
      "warm-up: doubles up to the most waiters the queue ever holds"]);
  q.count <- q.count + 1;
  insert q (q.count - 1) p (Process.generation p) priority

let wake_one q =
  if q.count > 0 then begin
    let j = q.first in
    q.first <- pos q 1;
    q.count <- q.count - 1;
    Process.wake q.procs.(j) q.gens.(j)
  end

let wake_all q =
  for _ = 1 to q.count do
    wake_one q
  done
