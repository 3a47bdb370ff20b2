type t = { waiting : Waitq.t }

let create (_ : Engine.t) = { waiting = Waitq.create () }

let wait t =
  Waitq.add t.waiting ~priority:0 (Process.self ());
  Process.park ()

let broadcast t = Waitq.wake_all t.waiting
let waiters t = Waitq.length t.waiting
