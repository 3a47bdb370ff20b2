(* R1 fixture: the event heap's pop floor, length and position-ordered
   node array belong to lib/sim/heap.ml alone, and a process's
   generation to lib/sim/process.ml; writing them from outside must be
   flagged. *)

let poke q n =
  q.last_key <- q.last_key + 1;
  q.h_len <- n;
  q.h_nodes <- [||]

let forge p = p.gen <- 0
