(* Items sit in a power-of-two ring of options, oldest at [first]. The
   stored [Some v] is the one box a message costs: [try_recv] hands it
   back as is, and a vacated slot goes back to [None] so a drained
   mailbox holds no values. *)

type 'a t = {
  capacity : int;
  mutable items : 'a option array;
  mutable first : int;
  mutable count : int;
  senders : Waitq.t;
  receivers : Waitq.t;
}

(* Smallest power of two >= [n], doubling up from [s]. *)
let rec ring_size n s = if s >= n then s else ring_size n (2 * s)

let create (_ : Engine.t) ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  {
    capacity;
    items = Array.make (ring_size (min capacity 8) 1) None;
    first = 0;
    count = 0;
    senders = Waitq.create ();
    receivers = Waitq.create ();
  }

let length t = t.count
let is_empty t = t.count = 0
let is_full t = t.count >= t.capacity
let mask t = Array.length t.items - 1

let grow t =
  let cap = Array.length t.items in
  let items = Array.make (2 * cap) None in
  for i = 0 to t.count - 1 do
    items.(i) <- t.items.((t.first + i) land (cap - 1))
  done;
  t.items <- items;
  t.first <- 0

let try_send t v =
  if is_full t then false
  else begin
    if t.count = Array.length t.items then
      (grow t
      [@osiris.alloc_ok
        "warm-up: doubles up to the deepest backlog the mailbox holds"]);
    t.items.((t.first + t.count) land mask t) <-
      (Some v
      [@osiris.alloc_ok
        "the one box a message costs: try_recv returns it unchanged"]);
    t.count <- t.count + 1;
    Waitq.wake_one t.receivers;
    true
  end

let rec send t v =
  if not (try_send t v) then begin
    Waitq.add t.senders ~priority:0 (Process.self ());
    Process.park ();
    send t v
  end

let try_recv t =
  if t.count = 0 then None
  else begin
    let item = t.items.(t.first) in
    t.items.(t.first) <- None;
    t.first <- (t.first + 1) land mask t;
    t.count <- t.count - 1;
    Waitq.wake_one t.senders;
    item
  end

let rec recv t =
  match try_recv t with
  | Some v -> v
  | None ->
      Waitq.add t.receivers ~priority:0 (Process.self ());
      Process.park ();
      recv t
