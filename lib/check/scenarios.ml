module Process = Osiris_sim.Process
module Time = Osiris_sim.Time
module Desc = Osiris_board.Desc
module Desc_queue = Osiris_board.Desc_queue
module Invariants = Osiris_core.Invariants
module Cell = Osiris_atm.Cell
module Switch = Osiris_switch.Switch
module Sender = Osiris_transport.Sender
module Receiver = Osiris_transport.Receiver

type t = Explore.scenario

(* Both processes yield after every attempt, so host and board steps are
   always runnable at the same instant — every step of the protocol is a
   choice point for the explorer. *)
let queue_scenario ~direction ~name ~locking ~size ~items ~mutation eng =
  let q =
    Desc_queue.create eng ~metrics_prefix:("check." ^ name) ~size ~direction
      ~locking ~hooks:Desc_queue.free_hooks ()
  in
  Desc_queue.set_test_mutation q mutation;
  let produced = ref 0 and consumed = ref 0 in
  let enqueue, dequeue =
    match direction with
    | Desc_queue.Host_to_board ->
        (Desc_queue.host_enqueue, Desc_queue.board_dequeue)
    | Desc_queue.Board_to_host ->
        (Desc_queue.board_enqueue, Desc_queue.host_dequeue)
  in
  let writer_name, reader_name =
    match direction with
    | Desc_queue.Host_to_board -> ("host", "board")
    | Desc_queue.Board_to_host -> ("board", "host")
  in
  (* Retry caps keep every schedule terminating: a side that sees the
     queue full (resp. empty) this many times in a row gives up, the
     engine drains, and the stall surfaces as an at_end liveness
     violation instead of an event-budget cutoff. Any fair schedule
     finishes orders of magnitude below the cap. *)
  let max_stalls = (4 * items) + 16 in
  Process.spawn eng ~name:writer_name (fun () ->
      let fulls = ref 0 in
      while !produced < items && !fulls <= max_stalls do
        if enqueue q (Desc.v ~addr:(0x1000 + !produced) ~len:1 ()) then begin
          incr produced;
          fulls := 0
        end
        else incr fulls;
        Process.yield eng
      done);
  Process.spawn eng ~name:reader_name (fun () ->
      let empties = ref 0 in
      while !consumed < items && !empties <= max_stalls do
        (match dequeue q with
        | Some _ ->
            incr consumed;
            empties := 0
        | None -> incr empties);
        Process.yield eng
      done);
  let conservation () =
    Invariants.balance
      ~what:(name ^ " descriptor conservation")
      ~total:!produced
      ~parts:
        [
          ("consumed", !consumed);
          ("queued", List.length (Desc_queue.contents q));
        ]
  in
  {
    Explore.check =
      (fun () -> Desc_queue.check_invariants ~name q @ conservation ());
    at_end =
      (fun () ->
        Desc_queue.check_invariants ~name q
        @ conservation ()
        @
        if !consumed = items then []
        else
          [
            Printf.sprintf "%s liveness: consumed %d of %d" name !consumed
              items;
          ]);
  }

(* The switch's output-queue datapath under arbitrary enqueue/dequeue
   interleavings: an ingress process feeds cells for one VC through the
   routing table while an egress process drains the output port, both
   yielding after every step. The probe is the switch's own conservation
   equation — cells in = forwarded + queued + dropped at {e every} choice
   point, not just at quiescence — plus VCI-rewrite correctness on each
   drained cell and an at_end liveness check that every cell was either
   forwarded or dropped to a full queue (the queue is deliberately
   smaller than the burst so both outcomes occur under FIFO). *)
let switch_datapath ?(queue_cells = 3) ?(items = 8) () eng =
  let cfg =
    { Switch.default_config with Switch.nports = 2; Switch.queue_cells }
  in
  let sw = Switch.create eng ~name:"chk-sw" cfg in
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  let produced = ref 0 and drained = ref 0 in
  let bad_rewrites = ref 0 in
  let max_stalls = (4 * items) + 16 in
  Process.spawn eng ~name:"ingress" (fun () ->
      while !produced < items do
        Switch.ingress_cell sw ~port:0
          (Cell.make ~vci:10 ~seq:!produced ~eom:true ~last_of_pdu:true
             (Bytes.make Cell.data_size '\000'));
        incr produced;
        Process.yield eng
      done);
  Process.spawn eng ~name:"egress" (fun () ->
      let empties = ref 0 in
      let settled () =
        let s = Switch.stats sw in
        !drained + s.Switch.dropped_overflow >= items
        && Switch.occupancy sw = 0
      in
      while (not (settled ())) && !empties <= max_stalls do
        (match Switch.drain_one sw ~port:1 with
        | Some cell ->
            if Cell.vci cell <> 20 then incr bad_rewrites;
            incr drained;
            empties := 0
        | None -> incr empties);
        Process.yield eng
      done);
  let conservation () =
    Invariants.balance ~what:"switch cell conservation"
      ~total:(Switch.stats sw).Switch.cells_in
      ~parts:(Switch.conservation sw)
  in
  let rewrites () =
    if !bad_rewrites = 0 then []
    else [ Printf.sprintf "switch: %d cells escaped unrewritten" !bad_rewrites ]
  in
  {
    Explore.check = (fun () -> conservation () @ rewrites ());
    at_end =
      (fun () ->
        let s = Switch.stats sw in
        conservation () @ rewrites ()
        @ (if s.Switch.dropped_no_route = 0 then []
           else
             [
               Printf.sprintf "switch: %d cells dropped on a programmed route"
                 s.Switch.dropped_no_route;
             ])
        @
        if !drained + s.Switch.dropped_overflow = items then []
        else
          [
            Printf.sprintf
              "switch liveness: drained %d + dropped %d of %d cells" !drained
              s.Switch.dropped_overflow items;
          ]);
  }

(* The transport sender/receiver state machines across a two-queue wire:
   a data process delivers segments to the receiver, an ack process
   delivers acks back to the sender, both stepping on the same fixed
   quantum so every delivery is an engine choice point against the other
   direction (and against the sender's retransmission timer once it
   fires). One mid-stream segment's first transmission and the first ack
   are dropped, so every explored schedule crosses the loss-recovery
   machinery — duplicate-sack fast retransmit, cumulative-ack catch-up,
   possibly an RTO — not just the happy path. The probes are the
   production invariants ({!Osiris_transport.Sender.invariants} /
   {!Osiris_transport.Receiver.invariants}: window bounds, byte and
   transmission conservation, timer discipline) at every choice point,
   plus at_end liveness and a byte-exact check of the delivered
   stream. *)
let transport ?(segs = 6) ?(drop_seg = 2) ?(drop_first_ack = true) () eng =
  let config =
    {
      Sender.seg_size = 16;
      window = 4;
      init_cwnd = 2;
      rto_init = Time.us 500;
      rto_min = Time.us 100;
      rto_max = Time.ms 2;
      max_retries = 8;
      dup_ack_threshold = 2;
      ecn = false;
    }
  in
  let total = segs * config.Sender.seg_size in
  let pattern = Bytes.init total (fun i -> Char.chr ((i * 13 + 5) land 0xff)) in
  let data_q = Queue.create () and ack_q = Queue.create () in
  let got = Buffer.create total in
  let receiver =
    Receiver.create ~name:"chk-rcv" ~window:config.Sender.window
      ~deliver:(fun ~seq:_ payload -> Buffer.add_bytes got payload)
      ~tx_ack:(fun ~ack ~sack ~ece -> Queue.add (ack, sack, ece) ack_q)
      ()
  in
  let sender =
    Sender.create eng ~name:"chk-snd" ~config
      ~tx:(fun ~seq ~retransmit payload ->
        Queue.add (seq, retransmit, payload) data_q)
      ()
  in
  Sender.offer sender (Bytes.copy pattern);
  Sender.close sender;
  (* Step caps keep every schedule terminating even if recovery wedges;
     a stall then surfaces as the at_end liveness violation. A healthy
     run finishes far below the cap (the RTO floor is ~50 quanta). *)
  let quantum = Time.us 10 in
  let max_steps = 600 in
  let ack_dropped = ref (not drop_first_ack) in
  Process.spawn eng ~name:"net-data" (fun () ->
      let steps = ref 0 in
      while Sender.state sender = Sender.Active && !steps <= max_steps do
        incr steps;
        (match Queue.take_opt data_q with
        | Some (seq, retransmit, _) when seq = drop_seg && not retransmit ->
            () (* the scripted loss: first transmission only *)
        | Some (seq, _, payload) ->
            Receiver.on_data receiver ~seq ~marked:false payload
        | None -> ());
        Process.sleep eng quantum
      done);
  Process.spawn eng ~name:"net-ack" (fun () ->
      let steps = ref 0 in
      while Sender.state sender = Sender.Active && !steps <= max_steps do
        incr steps;
        (match Queue.take_opt ack_q with
        | Some _ when not !ack_dropped -> ack_dropped := true
        | Some (ack, sack, ece) -> Sender.on_ack sender ~ack ~sack ~ece
        | None -> ());
        Process.sleep eng quantum
      done);
  let invs () = Sender.invariants sender @ Receiver.invariants receiver in
  {
    Explore.check = invs;
    at_end =
      (fun () ->
        invs ()
        @ (match Sender.state sender with
          | Sender.Finished -> []
          | Sender.Active -> [ "transport liveness: sender still Active" ]
          | Sender.Failed r ->
              [ Printf.sprintf "transport liveness: sender failed: %s" r ])
        @
        if Buffer.length got = total && Bytes.equal (Buffer.to_bytes got) pattern
        then []
        else
          [
            Printf.sprintf
              "transport delivery: %d of %d bytes delivered%s"
              (Buffer.length got) total
              (if Buffer.length got = total then ", corrupted" else "");
          ]);
  }

let host_to_board ?(locking = Desc_queue.Lock_free) ?(size = 4) ?(items = 8)
    ?(mutation = Desc_queue.No_mutation) () eng =
  queue_scenario ~direction:Desc_queue.Host_to_board ~name:"h2b" ~locking
    ~size ~items ~mutation eng

let board_to_host ?(locking = Desc_queue.Lock_free) ?(size = 4) ?(items = 8)
    ?(mutation = Desc_queue.No_mutation) () eng =
  queue_scenario ~direction:Desc_queue.Board_to_host ~name:"b2h" ~locking
    ~size ~items ~mutation eng
