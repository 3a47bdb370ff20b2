type handle = {
  mutable cancelled : bool;
  mutable queued : bool; (* currently sitting in the heap or the lane *)
  fn : unit -> unit;
}

type chooser = now:Time.t -> count:int -> int

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
  mutable chooser : chooser option;
  mutable horizon : Time.t;
      (* the [until] of the current unbudgeted, chooser-free run, up to
         which a sleep may complete inline or fuse its resume;
         [no_horizon] outside such a run *)
  heap : handle Heap.t;
  (* The same-instant lane: a FIFO ring of the events keyed at [clock]
     and scheduled while no chooser is installed, with their seqs. Every
     heap entry keyed at [clock] was scheduled before any of them (the
     clock only moves while the lane is empty), so dispatch drains those
     first. *)
  mutable lane_vals : handle array; (* [dummy_handle] in every free slot *)
  mutable lane_seqs : int array;
  mutable lane_head : int;
  mutable lane_len : int;
}

exception Stopped

let no_horizon = -1

let dummy_handle = { cancelled = true; queued = false; fn = ignore }

(* Ring slots in a fresh lane, a power of two; it doubles when full. *)
let lane_capacity = 16

let create () =
  { clock = Time.zero; seq = 0; stopping = false; dispatched = 0;
    chooser = None; horizon = no_horizon;
    heap = Heap.create ~dummy:dummy_handle;
    lane_vals = Array.make lane_capacity dummy_handle;
    lane_seqs = Array.make lane_capacity 0;
    lane_head = 0; lane_len = 0 }

let now t = t.clock

let events_dispatched t = t.dispatched

(* Unroll the full ring into twice the room, oldest entry first. *)
let lane_grow t =
  let cap = Array.length t.lane_vals in
  let vals = Array.make (2 * cap) dummy_handle in
  let seqs = Array.make (2 * cap) 0 in
  for j = 0 to cap - 1 do
    let i = (t.lane_head + j) land (cap - 1) in
    vals.(j) <- t.lane_vals.(i);
    seqs.(j) <- t.lane_seqs.(i)
  done;
  t.lane_vals <- vals;
  t.lane_seqs <- seqs;
  t.lane_head <- 0

let lane_push t ~seq h =
  if t.lane_len = Array.length t.lane_vals then
    (lane_grow t
    [@osiris.alloc_ok
      "ring warm-up: doubles up to the deepest same-instant burst, then \
       slots are reused forever"]);
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_vals - 1) in
  t.lane_vals.(i) <- h;
  t.lane_seqs.(i) <- seq;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let i = t.lane_head in
  let h = t.lane_vals.(i) in
  t.lane_vals.(i) <- dummy_handle;
  t.lane_head <- (i + 1) land (Array.length t.lane_vals - 1);
  t.lane_len <- t.lane_len - 1;
  h

let ev_add t ~key ~seq h =
  h.queued <- true;
  match t.chooser with
  | None when key = t.clock -> lane_push t ~seq h
  | None | Some _ -> Heap.add t.heap ~key ~seq h

(* The next event in (time, seq) order, moving the clock to its time;
   the caller guarantees one is pending. Heap entries at the current
   instant precede the lane. *)
let ev_take t =
  let h =
    if t.lane_len > 0 && Heap.next_key t.heap <> t.clock then lane_pop t
    else begin
      let h = Heap.take t.heap in
      t.clock <- Heap.last_key t.heap;
      h
    end
  in
  h.queued <- false;
  h

let ev_next_key t = if t.lane_len > 0 then t.clock else Heap.next_key t.heap

let pending t = Heap.length t.heap + t.lane_len

(* A chooser ranks every event at an instant, so the lane goes back into
   the heap under its original seqs and stays empty while one is
   installed. *)
let set_chooser t c =
  t.chooser <- c;
  match c with
  | None -> ()
  | Some _ ->
      while t.lane_len > 0 do
        let seq = t.lane_seqs.(t.lane_head) in
        Heap.add t.heap ~key:t.clock ~seq (lane_pop t)
      done

let check_time t time =
  if time < t.clock then
    (invalid_arg
       (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
          time t.clock)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let schedule_at t ~time fn =
  check_time t time;
  let h = { cancelled = false; queued = false; fn } in
  ev_add t ~key:time ~seq:t.seq h;
  t.seq <- t.seq + 1;
  h

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) fn

let handle fn = { cancelled = false; queued = false; fn }

let reschedule_at t ~time h =
  if h.queued then
    (invalid_arg "Engine.reschedule_at: handle is still queued"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  check_time t time;
  h.cancelled <- false;
  ev_add t ~key:time ~seq:t.seq h;
  t.seq <- t.seq + 1

let reschedule t ~delay h =
  if delay < 0 then
    (invalid_arg "Engine.reschedule: negative delay"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  reschedule_at t ~time:(t.clock + delay) h

let cancel h = h.cancelled <- true

(* Pop every live (non-cancelled) event scheduled at [key], in seq order.
   Cancelled entries are dropped on the way — they must not count as
   schedulable alternatives. Only used with a chooser installed, when
   the lane is empty. *)
let pop_instant t key =
  let rec go acc =
    if Heap.next_key t.heap <> key then acc
    else
      let h = Heap.take t.heap in
      h.queued <- false;
      go (if h.cancelled then acc else (Heap.last_seq t.heap, h) :: acc)
  in
  List.rev (go [])

(* One scheduling decision. [`Skipped] is a dispatch that consumed only
   cancelled handles — it advances the clock (matching the historical
   behaviour) but must not count against a [run ~max_events] budget. *)
let step_live t =
  match t.chooser with
  | None ->
      if t.lane_len = 0 && Heap.is_empty t.heap then `Empty
      else
        let h = ev_take t in
        if h.cancelled then `Skipped
        else begin
          t.dispatched <- t.dispatched + 1;
          (h.fn ()
          [@osiris.alloc_ok
            "dispatch: what the callback allocates is the callback's \
             budget, not the engine's"]);
          `Dispatched
        end
  | Some choose ->
      ((if Heap.is_empty t.heap then `Empty
        else
          let key = Heap.next_key t.heap in
          match pop_instant t key with
          | [] -> `Skipped (* only cancelled events at this instant *)
          | [ (_, h) ] ->
              t.clock <- key;
              t.dispatched <- t.dispatched + 1;
              h.fn ();
              `Dispatched
          | candidates ->
              let n = List.length candidates in
              let i = choose ~now:key ~count:n in
              if i < 0 || i >= n then
                invalid_arg
                  (Printf.sprintf
                     "Engine: chooser picked %d of %d candidates" i n);
              let _, h = List.nth candidates i in
              List.iteri
                (fun j (seq, h') -> if j <> i then ev_add t ~key ~seq h')
                candidates;
              t.clock <- key;
              t.dispatched <- t.dispatched + 1;
              h.fn ();
              `Dispatched)
      [@osiris.alloc_ok
        "schedule-explorer path: a chooser is installed only by \
         Osiris_check interleaving searches, never in production or \
         benchmark runs"])

let step t = step_live t <> `Empty

let stop t = t.stopping <- true

(* Neither fast path below may change what a run observes: each applies
   only where the events it elides would be the very next ones the
   current run dispatches, with no chooser, budget or stop request able
   to intervene, and leaves the clock, seq and dispatch count as those
   events would have. *)
let unobserved t =
  (not t.stopping) && match t.chooser with None -> true | Some _ -> false

(* A sleep until [time] completes inline when nothing queued fires
   before it (a queued key equal to [time] would, by its lower seq) and
   the current run would still dispatch at [time]: its timer and resume
   events are consumed without being queued. A [time] below the clock
   (an overflowed [now + d]) is left to [reschedule] to reject. *)
let sleep_inline t ~time =
  if time <= t.horizon && time < ev_next_key t && time >= t.clock
     && unobserved t
  then begin
    t.clock <- time;
    t.seq <- t.seq + 2;
    t.dispatched <- t.dispatched + 2;
    true
  end
  else false

(* A sleep timer firing with nothing else due at this instant may run
   its process in place of the resume it would arm here: that resume
   would be the run's very next event. *)
let fuse_resume t =
  if t.clock <= t.horizon && ev_next_key t > t.clock && unobserved t then begin
    t.seq <- t.seq + 1;
    t.dispatched <- t.dispatched + 1;
    true
  end
  else false

let run_loop ?until ?max_events t =
  let executed = ref 0 in
  let continue () =
    (not t.stopping)
    && (match max_events with None -> true | Some m -> !executed < m)
    &&
    match until with
    | None -> pending t > 0
    | Some u -> ev_next_key t <= u (* max_int when empty: never <= u *)
  in
  while continue () do
    match step_live t with
    | `Dispatched -> incr executed
    | `Skipped | `Empty -> ()
  done;
  (* When stopping because of [until], advance the clock to the horizon
     so repeated bounded runs observe monotonic time — including when
     the queue drained mid-run — but never past a still-pending event
     inside the horizon (the [max_events] budget can end the run with
     such events unfired, and firing them later must not move time
     backwards). *)
  match until with
  | Some u when (not t.stopping) && t.clock < u ->
      if ev_next_key t > u then t.clock <- u
  | _ -> ()

let run ?until ?max_events t =
  t.stopping <- false;
  let outer = t.horizon in
  t.horizon <-
    (match (max_events, t.chooser, until) with
    | None, None, None -> max_int
    | None, None, Some u -> u
    | Some _, _, _ | _, Some _, _ -> no_horizon);
  match run_loop ?until ?max_events t with
  | () -> t.horizon <- outer
  | exception e ->
      t.horizon <- outer;
      raise e
