(* R1 fixture: the timer wheel's floor, freelist head and node-pool
   arrays belong to lib/sim/wheel.ml alone, and a process's generation
   to lib/sim/process.ml; writing them from outside must be flagged. *)

let poke w n =
  w.cur <- w.cur + 1;
  w.free <- n;
  w.w_next <- [||]

let forge p = p.gen <- 0
