type stats = {
  mutable busy_time : Time.t;
  mutable acquisitions : int;
  mutable wait_time : Time.t;
}

type t = {
  eng : Engine.t;
  capacity : int;
  mutable held : int;
  waiters : Waitq.t; (* by priority, FIFO within one *)
  mutable last_change : Time.t;
  stats : stats;
}

let create eng ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
  {
    eng;
    capacity;
    held = 0;
    waiters = Waitq.create ();
    last_change = Engine.now eng;
    stats = { busy_time = 0; acquisitions = 0; wait_time = 0 };
  }

let account t =
  let now = Engine.now t.eng in
  t.stats.busy_time <- t.stats.busy_time + (t.held * (now - t.last_change));
  t.last_change <- now

let try_acquire t =
  if t.held < t.capacity && Waitq.is_empty t.waiters then begin
    account t;
    t.held <- t.held + 1;
    t.stats.acquisitions <- t.stats.acquisitions + 1;
    true
  end
  else false

let acquire ?(priority = 0) t =
  if not (try_acquire t) then begin
    let started = Engine.now t.eng in
    Waitq.add t.waiters ~priority (Process.self ());
    Process.park ();
    (* Woken by [release], which transferred the unit to us directly. *)
    t.stats.wait_time <- t.stats.wait_time + (Engine.now t.eng - started);
    t.stats.acquisitions <- t.stats.acquisitions + 1
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  account t;
  if Waitq.is_empty t.waiters then t.held <- t.held - 1
  else
    (* Hand the unit straight to the first waiter: [held] stays. *)
    Waitq.wake_one t.waiters

let use ?priority t ~duration =
  acquire ?priority t;
  Process.sleep t.eng duration;
  release t

let in_use t = t.held
let waiting t = Waitq.length t.waiters

let stats t =
  account t;
  t.stats
