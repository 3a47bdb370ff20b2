(* Tests for the discrete-event engine and its process layer. *)

open Osiris_sim

let check = Alcotest.(check int)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule eng ~delay:30 (record 3));
  ignore (Engine.schedule eng ~delay:10 (record 1));
  ignore (Engine.schedule eng ~delay:20 (record 2));
  Engine.run eng;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check "clock at last event" 30 (Engine.now eng)

let test_engine_fifo_same_time () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:7 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:5 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule eng ~delay:10 tick)
  in
  ignore (Engine.schedule eng ~delay:10 tick);
  Engine.run ~until:100 eng;
  check "bounded run" 10 !count;
  check "clock clamped to horizon" 100 (Engine.now eng)

let test_engine_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule eng ~delay:1 (fun () ->
           incr count;
           if !count = 3 then Engine.stop eng))
  done;
  Engine.run eng;
  check "stopped after third" 3 !count

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:10 (fun () -> ()));
  ignore (Engine.step eng);
  Alcotest.check_raises "past time" (Invalid_argument
    "Engine.schedule_at: time 5 is in the past (now 10)")
    (fun () -> ignore (Engine.schedule_at eng ~time:5 (fun () -> ())))

let test_process_sleep () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng ~name:"p" (fun () ->
      log := Engine.now eng :: !log;
      Process.sleep eng 100;
      log := Engine.now eng :: !log;
      Process.sleep eng 50;
      log := Engine.now eng :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "sleep advances time" [ 0; 100; 150 ]
    (List.rev !log)

let test_process_exception_named () =
  let eng = Engine.create () in
  Process.spawn eng ~name:"boom" (fun () -> failwith "bang");
  Alcotest.check_raises "process failure surfaces"
    (Process.Process_failure ("boom", Failure "bang"))
    (fun () -> Engine.run eng)

let test_not_in_process () =
  let eng = Engine.create () in
  Alcotest.check_raises "sleep outside process" Process.Not_in_process
    (fun () -> Process.sleep eng 5)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng () in
  let got = ref [] in
  Process.spawn eng ~name:"rx" (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter (fun v -> Mailbox.send mb v) [ 1; 2; 3 ]);
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_capacity_blocks () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:2 () in
  let sent = ref 0 in
  Process.spawn eng ~name:"tx" (fun () ->
      for i = 1 to 4 do
        Mailbox.send mb i;
        sent := i
      done);
  Process.spawn eng ~name:"rx" (fun () ->
      Process.sleep eng 100;
      ignore (Mailbox.recv mb);
      Process.sleep eng 100;
      ignore (Mailbox.recv mb));
  Engine.run ~until:50 eng;
  check "sender blocked at capacity" 2 !sent;
  Engine.run ~until:250 eng;
  check "sender progressed per receive" 4 !sent

let test_mailbox_try_ops () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:1 () in
  Alcotest.(check bool) "send into empty" true (Mailbox.try_send mb 1);
  Alcotest.(check bool) "send into full" false (Mailbox.try_send mb 2);
  Alcotest.(check (option int)) "recv" (Some 1) (Mailbox.try_recv mb);
  Alcotest.(check (option int)) "recv empty" None (Mailbox.try_recv mb)

let test_resource_mutual_exclusion () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  let active = ref 0 and max_active = ref 0 in
  for _ = 1 to 5 do
    Process.spawn eng ~name:"u" (fun () ->
        Resource.acquire res;
        incr active;
        if !active > !max_active then max_active := !active;
        Process.sleep eng 10;
        decr active;
        Resource.release res)
  done;
  Engine.run eng;
  check "never concurrent" 1 !max_active;
  check "all served, serialized" 50 (Engine.now eng)

let test_resource_priority () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  let order = ref [] in
  Process.spawn eng ~name:"holder" (fun () ->
      Resource.acquire res;
      Process.sleep eng 100;
      Resource.release res);
  Process.spawn eng ~name:"low" (fun () ->
      Process.sleep eng 1;
      Resource.acquire ~priority:10 res;
      order := "low" :: !order;
      Resource.release res);
  Process.spawn eng ~name:"high" (fun () ->
      Process.sleep eng 2;
      Resource.acquire ~priority:0 res;
      order := "high" :: !order;
      Resource.release res);
  Engine.run eng;
  Alcotest.(check (list string)) "priority served first" [ "high"; "low" ]
    (List.rev !order)

let test_resource_utilization () =
  let eng = Engine.create () in
  let res = Resource.create eng ~capacity:1 in
  Process.spawn eng ~name:"u" (fun () ->
      Resource.use res ~duration:40;
      Process.sleep eng 60;
      Resource.use res ~duration:20);
  Engine.run eng;
  let st = Resource.stats res in
  check "busy time" 60 st.Resource.busy_time;
  check "acquisitions" 2 st.Resource.acquisitions

let test_signal_broadcast () =
  let eng = Engine.create () in
  let s = Signal.create eng in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Process.spawn eng ~name:"w" (fun () ->
        Signal.wait s;
        incr woken)
  done;
  Process.spawn eng ~name:"b" (fun () ->
      Process.sleep eng 10;
      Signal.broadcast s);
  Engine.run eng;
  check "all woken" 3 !woken

let test_determinism () =
  let run () =
    let eng = Engine.create () in
    let trace = Buffer.create 64 in
    let mb = Mailbox.create eng ~capacity:3 () in
    for p = 1 to 3 do
      Process.spawn eng ~name:"p" (fun () ->
          for i = 1 to 5 do
            Mailbox.send mb ((p * 10) + i);
            Process.sleep eng p
          done)
    done;
    Process.spawn eng ~name:"c" (fun () ->
        for _ = 1 to 15 do
          Buffer.add_string trace (string_of_int (Mailbox.recv mb));
          Buffer.add_char trace ' ';
          Process.sleep eng 2
        done);
    Engine.run eng;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Engine clock/accounting regressions (each failed before the fix).  *)

let test_until_advances_when_drained () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:10 (fun () -> ()));
  Engine.run ~until:100 eng;
  check "clock reaches the horizon after the queue drains" 100
    (Engine.now eng);
  (* And repeated bounded runs over an empty queue stay monotonic. *)
  Engine.run ~until:200 eng;
  check "second bounded run" 200 (Engine.now eng)

let test_max_events_counts_live_only () =
  let eng = Engine.create () in
  let fired = ref [] in
  let hs =
    List.init 6 (fun i ->
        Engine.schedule eng ~delay:(10 * (i + 1)) (fun () ->
            fired := i :: !fired))
  in
  (* Cancel events 0, 2 and 4: a budget of 2 must still buy two live
     dispatches, not be eaten by popped corpses. *)
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) hs;
  Engine.run ~max_events:2 eng;
  Alcotest.(check (list int)) "budget buys two live dispatches" [ 1; 3 ]
    (List.rev !fired);
  check "live dispatch counter" 2 (Engine.events_dispatched eng);
  Engine.run eng;
  Alcotest.(check (list int)) "remaining live event runs" [ 1; 3; 5 ]
    (List.rev !fired)

let test_until_budget_does_not_skip_pending () =
  let eng = Engine.create () in
  let times = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.schedule eng ~delay:(10 * i) (fun () ->
           times := Engine.now eng :: !times))
  done;
  (* The budget stops the run with events still pending inside the
     horizon: the clock must hold at the last dispatch, not jump to the
     horizon and then run backwards when those events fire later. *)
  Engine.run ~until:100 ~max_events:1 eng;
  check "clock holds with pending events inside the horizon" 10
    (Engine.now eng);
  Engine.run ~until:100 eng;
  Alcotest.(check (list int)) "later events fire at their own times"
    [ 10; 20; 30 ] (List.rev !times);
  check "horizon reached once the queue is clear" 100 (Engine.now eng)

let test_reschedule_periodic () =
  let eng = Engine.create () in
  let n = ref 0 in
  let h = ref None in
  let fire () =
    incr n;
    if !n < 5 then Engine.reschedule eng ~delay:10 (Option.get !h)
  in
  h := Some (Engine.schedule eng ~delay:10 fire);
  Engine.run eng;
  check "periodic timer fires via one reused handle" 5 !n;
  check "clock tracks the period" 50 (Engine.now eng)

let test_reschedule_queued_rejected () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~delay:10 (fun () -> ()) in
  Alcotest.check_raises "still queued"
    (Invalid_argument "Engine.reschedule_at: handle is still queued")
    (fun () -> Engine.reschedule eng ~delay:5 h)

let test_reschedule_after_cancel () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule eng ~delay:5 (fun () -> incr fired) in
  Engine.cancel h;
  Engine.run eng;
  check "cancelled" 0 !fired;
  Engine.reschedule eng ~delay:5 h;
  Engine.run eng;
  check "re-armed handle is live again" 1 !fired

(* ------------------------------------------------------------------ *)
(* Space-leak regressions: popped entries must not pin their values.  *)

(* Build outside the caller's frame so no stack root keeps [v] alive. *)
let[@inline never] weak_after_pop add_pop =
  let v = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  add_pop v;
  w

let test_heap_releases_popped_values () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w =
    weak_after_pop (fun v ->
        Heap.add h ~key:1 ~seq:0 v;
        match Heap.pop_min h with
        | Some (1, 0, _) -> ()
        | _ -> Alcotest.fail "heap pop mismatch")
  in
  Gc.full_major ();
  Alcotest.(check bool) "popped heap value collected (heap still alive)"
    true
    (Weak.get w 0 = None);
  (* Use the heap after the collection, or it is garbage too and the
     check above proves nothing. *)
  check "heap empty" 0 (Heap.length h)

let alive ws =
  Array.fold_left (fun acc w -> if Weak.get w 0 = None then acc else acc + 1)
    0 ws

(* The same-instant lane holds callbacks in a ring: a dispatched slot
   must not pin its closure, whether it ran from the ring, from a ring
   that grew, or after a chooser moved the ring into the heap. *)
let test_lane_releases_popped_values () =
  let eng = Engine.create () in
  let schedule_now v =
    ignore (Engine.schedule eng ~delay:0 (fun () -> ignore (Bytes.length v)))
  in
  let n = 100 in
  let ws = Array.init n (fun _ -> weak_after_pop schedule_now) in
  check "all in the lane" n (Engine.pending eng);
  Engine.run eng;
  Gc.full_major ();
  check "every lane callback collected (engine still alive)" 0 (alive ws);
  let ws = Array.init n (fun _ -> weak_after_pop schedule_now) in
  Engine.set_chooser eng (Some (fun ~now:_ ~count:_ -> 0));
  check "the chooser moved the lane" n (Engine.pending eng);
  Engine.run eng;
  Gc.full_major ();
  check "every moved callback collected" 0 (alive ws);
  check "all dispatched" (2 * n) (Engine.events_dispatched eng)

(* ------------------------------------------------------------------ *)
(* Heap unit behaviour. *)

let test_heap_wide_keys () =
  let h = Heap.create ~dummy:(-1) in
  (* Keys over nine decimal magnitudes, including same-key runs. *)
  let keys = [ 0; 5; 5; 31; 32; 1_000; 33_554_432; 1_000_000_000; 7 ] in
  List.iteri (fun seq k -> Heap.add h ~key:k ~seq seq) keys;
  check "next key" 0 (Heap.next_key h);
  let popped = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, s, v) ->
        Alcotest.(check int) "value is its own seq" s v;
        popped := (k, s) :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "keys ascend, ties in seq order"
    [ (0, 0); (5, 1); (5, 2); (7, 8); (31, 3); (32, 4); (1_000, 5);
      (33_554_432, 6); (1_000_000_000, 7) ]
    (List.rev !popped);
  check "empty next key" max_int (Heap.next_key h)

let test_heap_floor_rejects_past () =
  let h = Heap.create ~dummy:0 in
  Heap.add h ~key:100 ~seq:0 0;
  ignore (Heap.pop_min h);
  check "floor follows pops" 100 (Heap.last_key h);
  Alcotest.check_raises "below the floor"
    (Invalid_argument "Heap.add: key 99 below the pop floor 100")
    (fun () -> Heap.add h ~key:99 ~seq:1 0)

(* ------------------------------------------------------------------ *)
(* Heap vs the reference model in ref_queue.ml: random adds and pops.
   Seqs are unique but not increasing (the engine re-adds a chooser's
   unpicked candidates under their old seqs), and [floor_probe] also
   tries adds below the pop floor, which both must reject. *)

let heap_model_prop ?(floor_probe = false) name ~keys =
  QCheck.Test.make ~name ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound keys)))
    (fun ops ->
      let q = Heap.create ~dummy:() and m = Ref_queue.create () in
      let n = ref 0 and fail = ref None in
      let diverged what = fail := Some what in
      let pop () =
        match (Heap.pop_min q, Ref_queue.pop_min m) with
        | Some (k, s, ()), Some (k', s', ()) when k = k' && s = s' -> ()
        | None, None -> ()
        | _ -> diverged "pop"
      in
      List.iter
        (fun (op, d) ->
          incr n;
          let seq = if d land 1 = 0 then !n else - !n in
          (match op with
          | 0 | 1 -> pop ()
          | 2 when floor_probe && Heap.last_key q > 0 -> (
              let key = Heap.last_key q - 1 - (d mod Heap.last_key q) in
              match Heap.add q ~key ~seq () with
              | () -> diverged "add below the floor accepted"
              | exception Invalid_argument _ -> ())
          | _ ->
              let key = Ref_queue.floor m + d in
              Heap.add q ~key ~seq ();
              Ref_queue.add m ~key ~seq ());
          if Heap.next_key q <> Ref_queue.next_key m then diverged "next_key";
          if Heap.length q <> Ref_queue.length m then diverged "length";
          if Heap.last_key q <> Ref_queue.floor m then diverged "floor")
        ops;
      while Ref_queue.length m > 0 do
        pop ()
      done;
      pop ();
      match !fail with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s diverged from the model" m)

let heap_sorted_list_prop =
  heap_model_prop "heap matches sorted-list model" ~keys:1000

let heap_ties_floor_prop =
  heap_model_prop ~floor_probe:true "heap matches model, ties and floor"
    ~keys:3

(* ------------------------------------------------------------------ *)
(* Differential dispatch: the same seeded workload must dispatch event
   for event identically whether the lane and fused sleep timers are in
   play or not. Plain events draw delays (a third of them 0: the lane),
   cancellations and fan-out from an RNG consumed inside the callbacks;
   sleeping processes exercise inline and fused sleeps. The streams
   only stay aligned if every dispatch matches exactly. *)

let dispatch_trace ?(switch_at = -1) ?switch_to ?chooser drive =
  let eng = Engine.create () in
  Engine.set_chooser eng chooser;
  let rng = Osiris_util.Rng.create ~seed:42 in
  let buf = Buffer.create 4096 in
  let log fmt = Printf.bprintf buf fmt in
  let count = ref 0 and burst = ref false in
  let cancellable = ref [] in
  let rec spawn_event () =
    if !count < 2500 then begin
      incr count;
      let id = !count in
      let d =
        match Osiris_util.Rng.int rng 6 with
        | _ when !burst -> 0
        | 0 | 1 -> 0
        | 2 -> Osiris_util.Rng.int rng 50
        | 3 -> Osiris_util.Rng.int rng 5_000
        | _ -> Osiris_util.Rng.int rng 500_000
      in
      let h =
        Engine.schedule eng ~delay:d (fun () ->
            log "%d@%d;" id (Engine.now eng);
            if id = switch_at then begin
              (* The chooser switch lands mid-instant: a burst of
                 same-instant events is waiting when it is installed,
                 and more are scheduled at this instant after it. *)
              burst := true;
              for _ = 1 to 4 do
                spawn_event ()
              done;
              burst := false;
              Engine.set_chooser eng switch_to
            end;
            if Osiris_util.Rng.int rng 3 > 0 then spawn_event ();
            if Osiris_util.Rng.int rng 4 = 0 then spawn_event ())
      in
      if Osiris_util.Rng.int rng 5 = 0 then
        cancellable := h :: !cancellable;
      if Osiris_util.Rng.int rng 7 = 0 then
        match !cancellable with
        | h :: tl ->
            Engine.cancel h;
            cancellable := tl
        | [] -> ()
    end
  in
  for p = 0 to 2 do
    Process.spawn eng ~name:"sleeper" (fun () ->
        for i = 1 to 300 do
          Process.sleep eng (((i * 7) + p) mod 40 * 250);
          log "p%d@%d;" p (Engine.now eng)
        done)
  done;
  for _ = 1 to 40 do
    spawn_event ()
  done;
  drive eng;
  log "|end:%d disp:%d|" (Engine.now eng) (Engine.events_dispatched eng);
  Buffer.contents buf

let fifo : Engine.chooser option = Some (fun ~now:_ ~count:_ -> 0)

let test_differential_dispatch () =
  let steps eng =
    while Engine.step eng do
      ()
    done
  in
  let want = dispatch_trace steps in
  Alcotest.(check string) "run = step loop" want (dispatch_trace Engine.run);
  Alcotest.(check string) "run = FIFO chooser" want
    (dispatch_trace ?chooser:fifo Engine.run);
  (* Bounded and budgeted segments exercise the clock adjustments, each
     recorded; the FIFO chooser never uses the lane or a fused timer. *)
  let segments ?chooser () =
    let clocks = ref [] in
    let drive eng =
      List.iter
        (fun run ->
          run eng;
          clocks := Engine.now eng :: !clocks)
        [ Engine.run ~until:200_000; Engine.run ~max_events:500;
          Engine.run ~until:900_000; Engine.run ?until:None ?max_events:None ]
    in
    let trace = dispatch_trace ?chooser drive in
    (trace, !clocks)
  in
  Alcotest.(check (pair string (list int))) "segments: lane = FIFO chooser"
    (segments ?chooser:fifo ()) (segments ())

(* A random chooser installed mid-instant sees the lane's events as
   candidates in their original seq order: the trace matches an engine
   whose events sat in the heap all along (a FIFO chooser from the
   start) and switched to the same random chooser at the same event. *)
let test_differential_dispatch_chooser () =
  let random () =
    let crng = Osiris_util.Rng.create ~seed:11 in
    Some (fun ~now:_ ~count -> Osiris_util.Rng.int crng count)
  in
  List.iter
    (fun switch_at ->
      Alcotest.(check string)
        (Printf.sprintf "random chooser from event %d" switch_at)
        (dispatch_trace ?chooser:fifo ~switch_at ?switch_to:(random ())
           Engine.run)
        (dispatch_trace ~switch_at ?switch_to:(random ()) Engine.run))
    [ 60; 700 ]

(* The fused-resume predicate: true only inside an unbudgeted,
   chooser-free run with nothing else due at the instant. *)
let test_fuse_resume_only_unobserved () =
  let probe ?(also = ignore) ?chooser drive =
    let eng = Engine.create () in
    Engine.set_chooser eng chooser;
    let got = ref None in
    ignore
      (Engine.schedule eng ~delay:5 (fun () ->
           also eng;
           got := Some (Engine.fuse_resume eng)));
    drive eng;
    (Option.get !got, Engine.events_dispatched eng)
  in
  let check_probe name want got =
    Alcotest.(check (pair bool int)) name want got
  in
  check_probe "run: fuses, counts the resume" (true, 2) (probe Engine.run);
  check_probe "bounded run reaching the instant" (true, 2)
    (probe (Engine.run ~until:5));
  check_probe "step never fuses" (false, 1)
    (probe (fun eng -> ignore (Engine.step eng)));
  check_probe "budgeted run" (false, 1) (probe (Engine.run ~max_events:1));
  check_probe "chooser" (false, 1) (probe ?chooser:fifo Engine.run);
  check_probe "after stop" (false, 1)
    (probe ~also:Engine.stop Engine.run);
  check_probe "lane event due" (false, 2)
    (probe
       ~also:(fun eng -> ignore (Engine.schedule eng ~delay:0 ignore))
       Engine.run);
  check_probe "heap event due" (false, 2)
    (probe
       ~also:(fun eng -> ignore (Engine.schedule_at eng ~time:5 ignore))
       Engine.run);
  check_probe "later event only" (true, 3)
    (probe
       ~also:(fun eng -> ignore (Engine.schedule eng ~delay:1 ignore))
       Engine.run)

(* ------------------------------------------------------------------ *)
(* Heap pool growth: a heap that outgrows its initial 64 nodes must
   double its way up and still agree with the model entry for entry,
   and still drop every popped value. *)

let test_heap_growth_vs_model () =
  let h = Heap.create ~dummy:(-1) and m = Ref_queue.create () in
  let rng = Osiris_util.Rng.create ~seed:7 in
  let seq = ref 0 in
  let add () =
    let key = Heap.last_key h + Osiris_util.Rng.int rng 5_000 in
    Heap.add h ~key ~seq:!seq !seq;
    Ref_queue.add m ~key ~seq:!seq !seq;
    incr seq
  in
  let pop () =
    Alcotest.(check (option (triple int int int)))
      "heap and model pop the same entry" (Ref_queue.pop_min m)
      (Heap.pop_min h)
  in
  for _ = 1 to 300 do
    add ()
  done;
  check "pool doubled past its initial capacity" 512 (Heap.capacity h);
  for round = 1 to 2_000 do
    if round mod 3 = 0 then pop () else add ()
  done;
  while not (Heap.is_empty h) do
    pop ()
  done;
  pop ();
  check "drained" 0 (Heap.length h)

let test_heap_grown_releases_values () =
  let h = Heap.create ~dummy:Bytes.empty in
  let n = 100 in
  let ws =
    Array.init n (fun i ->
        weak_after_pop (fun v -> Heap.add h ~key:(i mod 7) ~seq:i v))
  in
  Alcotest.(check bool) "pool grew" true (Heap.capacity h >= n);
  while Heap.pop_min h <> None do
    ()
  done;
  Gc.full_major ();
  Alcotest.(check int) "every popped value collected (heap still alive)" 0
    (alive ws);
  check "heap empty" 0 (Heap.length h)

(* ------------------------------------------------------------------ *)
(* Allocation pins for the event core. A suspension costs the block the
   runtime builds for the continuation of the suspended fiber; the
   engine, the process and the waiter queues add nothing of their own. *)

type _ Effect.t += Probe : unit Effect.t

(* Minor words of one bare perform/continue round trip under a handler
   that allocates nothing: the runtime's continuation block. *)
let continuation_words () =
  let open Effect.Deep in
  let n = 1_000 in
  let resume = Some (fun (k : (unit, unit) continuation) -> continue k ()) in
  let words = ref 0. in
  match_with
    (fun () ->
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Effect.perform Probe
      done;
      words := Gc.minor_words () -. w0)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Probe -> (resume : ((a, unit) continuation -> unit) option)
          | _ -> None);
    };
  int_of_float (Float.round (!words /. float_of_int n))

(* Minor words allocated by the rest of a run, after [warm] has brought
   every pool and queue to its working size. *)
let run_words eng ~warm =
  Engine.run ~until:warm eng;
  let w0 = Gc.minor_words () in
  Engine.run eng;
  int_of_float (Gc.minor_words () -. w0)

(* Headroom for what a measured run costs once, not per operation: the
   [Engine.run] budget closure and the boxed float [Gc.minor_words]
   returns. *)
let once = 32

(* Minor words [f] allocates, less what an empty measurement costs (the
   boxed floats [Gc.minor_words] returns). *)
let words_of f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  measure f - measure ignore

let test_sleep_allocation () =
  let cont = continuation_words () in
  Alcotest.(check bool) "continuation block measured" true (cont > 0);
  (* A lone sleeper: nothing else is ever queued, so every sleep
     completes inline. *)
  let eng = Engine.create () in
  let n = 2_000 in
  let inline_words = ref (-1) in
  Process.spawn eng ~name:"sleeper" (fun () ->
      Process.sleep eng 1;
      inline_words :=
        words_of (fun () ->
            for _ = 1 to n do
              Process.sleep eng 1
            done));
  Engine.run eng;
  check "clock after the inline sleeps" (n + 1) (Engine.now eng);
  check "two events per inline sleep" ((2 * (n + 1)) + 1)
    (Engine.events_dispatched eng);
  check (Printf.sprintf "%d inline sleeps allocate nothing" n) 0
    !inline_words;
  (* Two sleepers in lockstep: each one's timer is queued at the instant
     the other wakes to, so no sleep can complete inline and every one
     parks. (A far-future event alone would not do: a sleep ending
     before it still completes inline.) *)
  let eng = Engine.create () in
  for _ = 1 to 2 do
    Process.spawn eng ~name:"sleeper" (fun () ->
        for _ = 1 to n + 10 do
          Process.sleep eng 1
        done)
  done;
  let words = run_words eng ~warm:10 in
  Alcotest.(check bool)
    (Printf.sprintf "%d parked sleeps in %d words (continuation %d)" (2 * n)
       words cont)
    true
    (words <= (2 * n * cont) + once);
  Alcotest.(check bool) "the sleeps parked" true (words >= n * cont)

let test_mailbox_allocation () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng ~capacity:4 () in
  let n = 2_000 in
  (* The receiver blocks on every message; the sender fills the mailbox
     and then blocks on capacity too. *)
  Process.spawn eng ~name:"rx" (fun () ->
      for _ = 1 to n + 100 do
        ignore (Mailbox.recv mb);
        Process.sleep eng 1
      done);
  Process.spawn eng ~name:"tx" (fun () ->
      for i = 1 to n + 100 do
        Mailbox.send mb i
      done);
  let words = run_words eng ~warm:100 in
  Alcotest.(check bool)
    (Printf.sprintf "%d messages in %d words" n words)
    true
    (words <= (8 * n) + once)

let test_signal_resource_allocation () =
  let cont = continuation_words () in
  let eng = Engine.create () in
  let s = Signal.create eng in
  let res = Resource.create eng ~capacity:1 in
  let n = 1_000 in
  (* Upper bound on the suspensions of the measured stretch: every wait
     and every sleep parks once, and every use at most once more on its
     acquire. *)
  let suspensions = ref 0 in
  for _ = 1 to 3 do
    Process.spawn eng ~name:"waiter" (fun () ->
        for _ = 1 to n do
          incr suspensions;
          Signal.wait s
        done)
  done;
  Process.spawn eng ~name:"broadcaster" (fun () ->
      for _ = 1 to n + 1 do
        incr suspensions;
        Process.sleep eng 10;
        Signal.broadcast s
      done);
  for _ = 1 to 2 do
    Process.spawn eng ~name:"user" (fun () ->
        for _ = 1 to n do
          suspensions := !suspensions + 2;
          Resource.use res ~duration:3
        done)
  done;
  Engine.run ~until:50 eng;
  let s0 = !suspensions in
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let words = int_of_float (Gc.minor_words () -. w0) in
  let parks = !suspensions - s0 in
  Alcotest.(check int) "every waiter served" 0 (Signal.waiters s);
  Alcotest.(check int) "resource free" 0 (Resource.in_use res);
  Alcotest.(check bool)
    (Printf.sprintf "%d suspensions in %d words (continuation %d)" parks
       words cont)
    true
    (words <= (parks * cont) + once)

(* ------------------------------------------------------------------ *)
(* Inline sleeps are invisible. Random scenarios of sleeping, mailbox,
   signal and resource processes run under [Engine.run] (sleeps may
   complete inline) and under drivers that never inline a sleep: an
   [Engine.step] loop, a [max_events] budget, a FIFO chooser. Every
   process's trace of (operation, time), the final clock and the event
   count must agree; [until]-bounded segments may complete inline up to
   each horizon and must agree too. *)

let scenario ~seed drive =
  let module Rng = Osiris_util.Rng in
  let eng = Engine.create () in
  let mbs = Array.init 2 (fun _ -> Mailbox.create eng ~capacity:2 ()) in
  let sg = Signal.create eng in
  let res = Resource.create eng ~capacity:1 in
  let nproc = 5 in
  let traces = Array.init nproc (fun _ -> Buffer.create 256) in
  for i = 0 to nproc - 1 do
    let rng = Rng.create ~seed:((seed * 101) + i) in
    Process.spawn eng ~name:(Printf.sprintf "p%d" i) (fun () ->
        let log tag =
          Buffer.add_string traces.(i)
            (Printf.sprintf "%s@%d;" tag (Engine.now eng))
        in
        for _ = 1 to 60 do
          match Rng.int rng 12 with
          | 0 | 1 | 2 | 3 ->
              (* short sleeps collide with one another's wake instants *)
              Process.sleep eng (Rng.int rng 4);
              log "s"
          | 4 ->
              Process.sleep eng (Rng.int rng 1_000);
              log "S"
          | 5 ->
              Process.yield eng;
              log "y"
          | 6 | 7 ->
              Mailbox.send mbs.(Rng.int rng 2) i;
              log "tx"
          | 8 ->
              log (Printf.sprintf "rx%d" (Mailbox.recv mbs.(Rng.int rng 2)))
          | 9 ->
              Signal.broadcast sg;
              log "b"
          | 10 ->
              if Rng.int rng 3 = 0 then begin
                Signal.wait sg;
                log "w"
              end
          | _ ->
              Resource.use res ~duration:(Rng.int rng 5);
              log "u"
        done;
        log "end")
  done;
  drive eng;
  String.concat "\n" (Array.to_list (Array.map Buffer.contents traces))
  ^ Printf.sprintf "\ndispatched=%d" (Engine.events_dispatched eng),
  Engine.now eng

let drive_run eng = Engine.run eng

let drive_steps eng =
  while Engine.step eng do
    ()
  done

let drive_budget eng =
  while Engine.pending eng > 0 do
    Engine.run ~max_events:7 eng
  done

let drive_fifo_chooser eng =
  Engine.set_chooser eng (Some (fun ~now:_ ~count:_ -> 0));
  Engine.run eng

let horizons = [ 3; 40; 41; 500; 2_000 ]

let drive_segments eng =
  List.iter (fun u -> Engine.run ~until:u eng) horizons;
  Engine.run eng

let inline_equivalence_prop =
  QCheck.Test.make ~name:"inline sleeps: run = step loop = budget = chooser"
    ~count:60 QCheck.small_nat (fun seed ->
      let want, clock = scenario ~seed drive_steps in
      let agree name drive =
        let got, c = scenario ~seed drive in
        (got = want && c = clock)
        || QCheck.Test.fail_reportf
             "%s diverged from the step loop:\n%s\nvs\n%s" name got want
      in
      agree "run" drive_run && agree "budget" drive_budget
      && agree "fifo chooser" drive_fifo_chooser
      &&
      let got, c = scenario ~seed drive_segments in
      let last = List.fold_left max 0 horizons in
      (got = want && c = max clock last)
      || QCheck.Test.fail_reportf "segments diverged:\n%s\nvs\n%s" got want)

(* A sleeper that records when it wakes; [before] runs first in its
   process. *)
let sleeper ?(before = ignore) eng d =
  let woke = ref (-1) in
  Process.spawn eng ~name:"sleeper" (fun () ->
      before ();
      Process.sleep eng d;
      woke := Engine.now eng);
  woke

let test_inline_not_past_until () =
  let eng = Engine.create () in
  let woke = sleeper eng 100 in
  Engine.run ~until:50 eng;
  check "clock at the horizon" 50 (Engine.now eng);
  check "still asleep" (-1) !woke;
  check "timer queued" 1 (Engine.pending eng);
  Engine.run eng;
  check "woke at its time" 100 !woke;
  (* A sleep ending exactly at the horizon completes within the run. *)
  let eng = Engine.create () in
  let woke = sleeper eng 50 in
  Engine.run ~until:50 eng;
  check "woke at the horizon" 50 !woke;
  check "nothing queued" 0 (Engine.pending eng);
  check "timer and resume counted" 3 (Engine.events_dispatched eng)

let test_inline_not_under_budget () =
  let eng = Engine.create () in
  let woke = sleeper eng 10 in
  Engine.run ~max_events:1 eng;
  check "start only" 0 (Engine.now eng);
  check "parked" (-1) !woke;
  Engine.run ~max_events:1 eng;
  check "timer fired" 10 (Engine.now eng);
  check "not yet resumed" (-1) !woke;
  Engine.run ~max_events:1 eng;
  check "resumed" 10 !woke;
  check "three events" 3 (Engine.events_dispatched eng)

let test_inline_not_by_step () =
  let eng = Engine.create () in
  let woke = sleeper eng 10 in
  Alcotest.(check bool) "one event" true (Engine.step eng);
  check "clock unmoved" 0 (Engine.now eng);
  check "parked" (-1) !woke;
  check "timer queued" 1 (Engine.pending eng)

let test_inline_not_after_stop () =
  let eng = Engine.create () in
  let woke = sleeper eng 10 ~before:(fun () -> Engine.stop eng) in
  Engine.run eng;
  check "run stopped before the sleep ended" 0 (Engine.now eng);
  check "parked" (-1) !woke;
  Engine.run eng;
  check "resumed by the next run" 10 !woke

let test_inline_not_with_chooser () =
  (* A parked sleep suspends the fiber, which allocates; an inline one
     allocates nothing. *)
  let sleep_words chooser =
    let eng = Engine.create () in
    Engine.set_chooser eng chooser;
    let words = ref (-1) in
    Process.spawn eng ~name:"sleeper" (fun () ->
        words := words_of (fun () -> Process.sleep eng 1));
    Engine.run eng;
    check "clock" 1 (Engine.now eng);
    check "events" 3 (Engine.events_dispatched eng);
    !words
  in
  check "inline without a chooser" 0 (sleep_words None);
  Alcotest.(check bool) "parked under a chooser" true
    (sleep_words (Some (fun ~now:_ ~count:_ -> 0)) > 0)

let test_inline_stale_waker () =
  let eng = Engine.create () in
  let raised = ref false in
  Process.spawn eng ~name:"sleeper" (fun () ->
      let me = Process.self () in
      let g = Process.generation me in
      Process.sleep eng 5;
      check "an inline sleep consumes a generation" (g + 1)
        (Process.generation me);
      match Process.wake me g with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Engine.run eng;
  check "slept" 5 (Engine.now eng);
  Alcotest.(check bool) "waker from before the sleep raises" true !raised

(* A sleep whose end overflows the clock is rejected, as a queued one
   always was, rather than completing inline at a negative time. *)
let test_inline_overflow_rejected () =
  let eng = Engine.create () in
  let rejected = ref false in
  Process.spawn eng ~name:"sleeper" (fun () ->
      Process.sleep eng 1;
      match Process.sleep eng max_int with
      | () -> ()
      | exception Invalid_argument _ -> rejected := true);
  Engine.run eng;
  Alcotest.(check bool) "overflowing sleep rejected" true !rejected;
  check "clock unmoved" 1 (Engine.now eng)

(* ------------------------------------------------------------------ *)
(* Wakers are one-shot: a second wake, or one left over from an earlier
   park, is a bug in the blocking primitive and must not resume the
   process out of turn. *)

let test_wake_generation () =
  let eng = Engine.create () in
  let waker = ref None and resumed = ref 0 in
  Process.spawn eng ~name:"parker" (fun () ->
      for _ = 1 to 2 do
        let me = Process.self () in
        waker := Some (me, Process.generation me);
        Process.park ();
        incr resumed
      done);
  Engine.run eng;
  let p, g = Option.get !waker in
  Process.wake p g;
  Alcotest.check_raises "double wake"
    (Invalid_argument "Process: resumer invoked twice") (fun () ->
      Process.wake p g);
  Engine.run eng;
  check "resumed once" 1 !resumed;
  let p', g' = Option.get !waker in
  Alcotest.(check bool) "same process, new generation" true
    (p' == p && g' <> g);
  Alcotest.check_raises "stale generation"
    (Invalid_argument "Process: resumer invoked twice") (fun () ->
      Process.wake p g);
  Process.wake p' g';
  Engine.run eng;
  check "resumed by the current waker" 2 !resumed

let test_park_outside_process () =
  Alcotest.check_raises "park outside a process" Process.Not_in_process
    Process.park;
  Alcotest.check_raises "self outside a process" Process.Not_in_process
    (fun () -> ignore (Process.self ()))

(* A disabled trace site behind its guard costs nothing: the format, its
   arguments and the emit call are all skipped. *)
let test_trace_guard_allocation () =
  Trace.reset_for_testing ();
  let n = 10_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      f (Sys.opaque_identity i)
    done;
    Gc.minor_words () -. w0
  in
  let empty = measure ignore in
  let guarded =
    measure (fun i ->
        if Trace.on Trace.Link then
          Trace.emitf Trace.Link ~now:i "cell vci=%d seq=%d -> link %d" i
            (i + 1) (i + 2))
  in
  Alcotest.(check (float 0.)) "guarded trace site allocates nothing" 0.
    (guarded -. empty);
  check "nothing emitted" 0 (Trace.events_emitted ())

(* Heap property: popping returns keys in nondecreasing order. *)
let heap_prop =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = Heap.create ~dummy:0 in
      List.iteri (fun i (k, v) -> Heap.add h ~key:k ~seq:i v) entries;
      let rec drain last acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (k, _, v) ->
            if k < last then raise Exit;
            drain k (v :: acc)
      in
      let popped = try drain min_int [] with Exit -> [] in
      List.length popped = List.length entries)

let suite =
  [
    Alcotest.test_case "engine: timestamp order" `Quick test_engine_ordering;
    Alcotest.test_case "engine: same-instant FIFO" `Quick
      test_engine_fifo_same_time;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: bounded run" `Quick test_engine_until;
    Alcotest.test_case "engine: stop" `Quick test_engine_stop;
    Alcotest.test_case "engine: no scheduling in the past" `Quick
      test_schedule_past_rejected;
    Alcotest.test_case "process: sleep" `Quick test_process_sleep;
    Alcotest.test_case "process: named failure" `Quick
      test_process_exception_named;
    Alcotest.test_case "process: blocking outside process" `Quick
      test_not_in_process;
    Alcotest.test_case "mailbox: FIFO" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox: capacity blocks sender" `Quick
      test_mailbox_capacity_blocks;
    Alcotest.test_case "mailbox: try operations" `Quick test_mailbox_try_ops;
    Alcotest.test_case "resource: mutual exclusion" `Quick
      test_resource_mutual_exclusion;
    Alcotest.test_case "resource: priority" `Quick test_resource_priority;
    Alcotest.test_case "resource: utilization stats" `Quick
      test_resource_utilization;
    Alcotest.test_case "signal: broadcast wakes all" `Quick
      test_signal_broadcast;
    Alcotest.test_case "whole-sim determinism" `Quick test_determinism;
    Alcotest.test_case "engine: until advances drained clock" `Quick
      test_until_advances_when_drained;
    Alcotest.test_case "engine: max_events counts live only" `Quick
      test_max_events_counts_live_only;
    Alcotest.test_case "engine: budget never skips pending time" `Quick
      test_until_budget_does_not_skip_pending;
    Alcotest.test_case "engine: reschedule reuses handle" `Quick
      test_reschedule_periodic;
    Alcotest.test_case "engine: reschedule of queued handle rejected" `Quick
      test_reschedule_queued_rejected;
    Alcotest.test_case "engine: reschedule revives cancelled handle" `Quick
      test_reschedule_after_cancel;
    Alcotest.test_case "heap: popped values are released" `Quick
      test_heap_releases_popped_values;
    Alcotest.test_case "lane: popped values are released" `Quick
      test_lane_releases_popped_values;
    Alcotest.test_case "heap: wide keys pop in order" `Quick
      test_heap_wide_keys;
    Alcotest.test_case "heap: floor rejects past keys" `Quick
      test_heap_floor_rejects_past;
    Alcotest.test_case "differential: run vs step dispatch" `Quick
      test_differential_dispatch;
    Alcotest.test_case "differential: chooser mid-instant" `Quick
      test_differential_dispatch_chooser;
    Alcotest.test_case "fused resume: unobserved runs only" `Quick
      test_fuse_resume_only_unobserved;
    Alcotest.test_case "heap: pool growth matches the model" `Quick
      test_heap_growth_vs_model;
    Alcotest.test_case "heap: grown pool releases values" `Quick
      test_heap_grown_releases_values;
    Alcotest.test_case "alloc: sleep costs the continuation" `Quick
      test_sleep_allocation;
    Alcotest.test_case "alloc: mailbox message" `Quick
      test_mailbox_allocation;
    Alcotest.test_case "alloc: signal and contended resource" `Quick
      test_signal_resource_allocation;
    Alcotest.test_case "process: stale and double wakes raise" `Quick
      test_wake_generation;
    Alcotest.test_case "process: park outside a process" `Quick
      test_park_outside_process;
    QCheck_alcotest.to_alcotest inline_equivalence_prop;
    Alcotest.test_case "inline sleep: never past until" `Quick
      test_inline_not_past_until;
    Alcotest.test_case "inline sleep: never under max_events" `Quick
      test_inline_not_under_budget;
    Alcotest.test_case "inline sleep: never by step" `Quick
      test_inline_not_by_step;
    Alcotest.test_case "inline sleep: never after stop" `Quick
      test_inline_not_after_stop;
    Alcotest.test_case "inline sleep: never with a chooser" `Quick
      test_inline_not_with_chooser;
    Alcotest.test_case "inline sleep: stale waker raises" `Quick
      test_inline_stale_waker;
    Alcotest.test_case "inline sleep: overflow rejected" `Quick
      test_inline_overflow_rejected;
    Alcotest.test_case "trace: guarded site allocates nothing" `Quick
      test_trace_guard_allocation;
    QCheck_alcotest.to_alcotest heap_prop;
    QCheck_alcotest.to_alcotest heap_sorted_list_prop;
    QCheck_alcotest.to_alcotest heap_ties_floor_prop;
  ]
