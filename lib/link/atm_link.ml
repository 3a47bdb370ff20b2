open Osiris_sim
module Cell = Osiris_atm.Cell
module Rng = Osiris_util.Rng
module Metrics = Osiris_obs.Metrics
module Trace = Osiris_sim.Trace

type config = {
  nlinks : int;
  link_rate_bps : int;
  propagation_delay : Time.t;
  skew : Time.t array;
  jitter_mean : Time.t;
  corrupt_prob : float;
  drop_prob : float;
  dup_prob : float;
  corrupt_header_prob : float;
  tx_fifo_cells : int;
  rx_fifo_cells : int;
}

let default_config =
  {
    nlinks = 4;
    link_rate_bps = 155_520_000;
    propagation_delay = Time.us 1;
    skew = [| 0; 0; 0; 0 |];
    jitter_mean = 0;
    corrupt_prob = 0.0;
    drop_prob = 0.0;
    dup_prob = 0.0;
    corrupt_header_prob = 0.0;
    tx_fifo_cells = 2;
    rx_fifo_cells = 32;
  }

let oc12_aggregate cfg =
  float_of_int (cfg.nlinks * cfg.link_rate_bps)
  /. 1e6
  *. float_of_int Cell.data_size
  /. float_of_int Cell.wire_size

type stats = {
  mutable cells_sent : int;
  mutable cells_delivered : int;
  mutable dropped_fifo : int;
  mutable dropped_net : int;
  mutable corrupted : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable header_corrupted : int;
  mutable dropped_link_down : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped_fifo : Metrics.counter;
  m_dropped_net : Metrics.counter;
  m_corrupted : Metrics.counter;
  m_reordered : Metrics.counter;
  m_duplicated : Metrics.counter;
  m_header_corrupted : Metrics.counter;
  m_dropped_link_down : Metrics.counter;
  m_link_transitions : Metrics.counter;
}

(* Cells in flight on one channel, in the order their arrival events were
   scheduled: a ring of (cell, trunk seq, dup) with one reusable engine
   handle per slot. Arrival times on a channel strictly increase, so the
   channel's events fire in ring order: each firing takes the oldest
   entry, and its slot's handle is the one that just fired, free to be
   re-armed by the next cell placed there. *)
type wire = {
  mutable w_cells : Cell.t array;
  mutable w_tags : int array; (* trunk seq lsl 1, lor 1 for a duplicate *)
  mutable w_handles : Engine.handle array;
  mutable first : int;
  mutable count : int;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  cfg : config;
  cell_time : Time.t;
  mutable send_seq : int;
  mutable max_delivered_seq : int;
  busy_until : Time.t array; (* per-channel serializer booking *)
  last_delivery : Time.t array; (* per-channel FIFO enforcement *)
  inbox : (int * Cell.t) Mailbox.t;
  (* Fault-injection state, adjustable at runtime (Osiris_fault.Injector).
     Initialized from [cfg]; when every knob matches the config the RNG
     draw sequence is identical to a build without fault support. *)
  mutable drop_prob : float;
  mutable corrupt_prob : float;
  mutable dup_prob : float;
  mutable corrupt_header_prob : float;
  link_up : bool array; (* per-channel carrier state *)
  mutable live : int array; (* channels with carrier, ascending *)
  mutable rx_limit : int; (* rx FIFO squeeze (<= rx_fifo_cells) *)
  mutable cell_filter : (int -> Cell.t -> bool) option;
  mutable on_change : (unit -> unit) list;
  wires : wire array; (* per-channel in-flight deliveries *)
  m : m;
}

let create eng rng cfg =
  if cfg.nlinks < 1 then invalid_arg "Atm_link.create: nlinks must be >= 1";
  if Array.length cfg.skew <> cfg.nlinks then
    invalid_arg "Atm_link.create: skew array must have nlinks entries";
  if cfg.tx_fifo_cells < 1 || cfg.rx_fifo_cells < 1 then
    invalid_arg "Atm_link.create: FIFOs need at least one slot";
  let cell_time =
    Cell.wire_size * 8 * 1_000_000_000 / cfg.link_rate_bps
  in
  {
    eng;
    rng;
    cfg;
    cell_time;
    send_seq = 0;
    max_delivered_seq = -1;
    busy_until = Array.make cfg.nlinks 0;
    last_delivery = Array.make cfg.nlinks 0;
    inbox = Mailbox.create eng ~capacity:cfg.rx_fifo_cells ();
    drop_prob = cfg.drop_prob;
    corrupt_prob = cfg.corrupt_prob;
    dup_prob = cfg.dup_prob;
    corrupt_header_prob = cfg.corrupt_header_prob;
    link_up = Array.make cfg.nlinks true;
    live = Array.init cfg.nlinks (fun i -> i);
    rx_limit = cfg.rx_fifo_cells;
    cell_filter = None;
    on_change = [];
    wires =
      Array.init cfg.nlinks (fun _ ->
          {
            w_cells = [||];
            w_tags = [||];
            w_handles = [||];
            first = 0;
            count = 0;
          });
    m =
      {
        m_sent = Metrics.counter "link.cells_sent";
        m_delivered = Metrics.counter "link.cells_delivered";
        m_dropped_fifo = Metrics.counter "link.dropped_fifo";
        m_dropped_net = Metrics.counter "link.dropped_net";
        m_corrupted = Metrics.counter "link.corrupted";
        m_reordered = Metrics.counter "link.reordered";
        m_duplicated = Metrics.counter "link.duplicated";
        m_header_corrupted = Metrics.counter "link.header_corrupted";
        m_dropped_link_down = Metrics.counter "link.dropped_link_down";
        m_link_transitions = Metrics.counter "link.link_transitions";
      };
  }

let config t = t.cfg

(* ---------------------------------------------------------------- *)
(* Runtime fault knobs.                                             *)

let set_drop_prob t p = t.drop_prob <- p
let set_corrupt_prob t p = t.corrupt_prob <- p
let set_dup_prob t p = t.dup_prob <- p
let set_corrupt_header_prob t p = t.corrupt_header_prob <- p

let set_rx_fifo_limit t n =
  t.rx_limit <- max 1 (min n t.cfg.rx_fifo_cells)

let rx_fifo_limit t = t.rx_limit
let set_cell_filter t f = t.cell_filter <- f
let on_link_change t f = t.on_change <- f :: t.on_change
let link_is_up t link = t.link_up.(link)
let nlive t = Array.length t.live
let live_links t = Array.to_list t.live

let set_link_state t ~link up =
  if link < 0 || link >= t.cfg.nlinks then
    invalid_arg "Atm_link.set_link_state: link out of range";
  if t.link_up.(link) <> up then begin
    t.link_up.(link) <- up;
    t.live <-
      Array.of_list
        (List.filter
           (fun i -> t.link_up.(i))
           (List.init t.cfg.nlinks (fun i -> i)));
    Metrics.incr t.m.m_link_transitions;
    if Trace.on Trace.Fault then
      Trace.emitf Trace.Fault ~now:(Engine.now t.eng) "link %d %s (%d/%d live)"
        link
        (if up then "up" else "down")
        (Array.length t.live) t.cfg.nlinks;
    List.iter (fun f -> f ()) t.on_change
  end

let deliver t link seq ~dup cell =
  if not t.link_up.(link) then begin
    (* Carrier dropped while the cell was in flight. *)
    Metrics.incr t.m.m_dropped_link_down;
    if Trace.on Trace.Fault then
      (Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
         "cell lost to dead link %d trunk_seq=%d" link seq
      [@osiris.alloc_ok "fault diagnostics: formats only when tracing on"])
  end
  else
    match t.cell_filter with
    | Some f
      when not
             (f link cell
             [@osiris.alloc_ok
               "fault-injection filter: installed only by fault plans"]) ->
        Metrics.incr t.m.m_dropped_net;
        if Trace.on Trace.Fault then
          (Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
             "cell filtered on link %d trunk_seq=%d" link seq
          [@osiris.alloc_ok "fault diagnostics: formats only when tracing on"])
    | _ ->
        if dup then Metrics.incr t.m.m_duplicated
        else if seq > t.max_delivered_seq then t.max_delivered_seq <- seq
        else begin
          Metrics.incr t.m.m_reordered;
          if Trace.on Trace.Link then
            (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
               "reordered arrival link=%d trunk_seq=%d" link seq
            [@osiris.alloc_ok "diagnostics: formats only when tracing is on"])
        end;
        if
          Mailbox.length t.inbox < t.rx_limit
          && Mailbox.try_send t.inbox
               ((link, cell)
               [@osiris.alloc_ok
                 "the receive FIFO's (channel, cell) entry is the link's \
                  output contract: one pair per delivered cell"])
        then Metrics.incr t.m.m_delivered
        else begin
          Metrics.incr t.m.m_dropped_fifo;
          if Trace.on Trace.Link then
            (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
               "rx fifo overflow link=%d trunk_seq=%d" link seq
            [@osiris.alloc_ok "diagnostics: formats only when tracing is on"])
        end

(* The arrival event of channel [l]: its oldest in-flight cell lands. *)
let arrive t l =
  let w = t.wires.(l) in
  let i = w.first in
  let cell = w.w_cells.(i) and tag = w.w_tags.(i) in
  w.first <- (if i + 1 = Array.length w.w_cells then 0 else i + 1);
  w.count <- w.count - 1;
  deliver t l (tag lsr 1) ~dup:(tag land 1 = 1) cell

(* Double channel [l]'s ring, oldest entry first, keeping each queued
   entry's handle with it; the new slots get fresh handles. A landed slot
   keeps its cell until reused, so at most one ring of cells per channel
   stays reachable after landing. *)
let grow t l filler =
  let w = t.wires.(l) in
  let n = Array.length w.w_cells in
  let cap = max 8 (2 * n) in
  let at i = (w.first + i) mod n in
  let fresh _ = Engine.handle (fun () -> arrive t l) in
  w.w_cells <-
    Array.init cap (fun i -> if i < n then w.w_cells.(at i) else filler);
  w.w_tags <- Array.init cap (fun i -> if i < n then w.w_tags.(at i) else 0);
  w.w_handles <-
    Array.init cap (fun i -> if i < n then w.w_handles.(at i) else fresh i);
  w.first <- 0

(* Put [cell] in flight on channel [l], landing at [time]. *)
let launch t l ~time ~seq ~dup cell =
  let w = t.wires.(l) in
  if w.count = Array.length w.w_cells then
    (grow t l cell
    [@osiris.alloc_ok
      "the ring doubles until it holds the channel's deepest backlog, \
       then every launch reuses a slot and its handle"]);
  let i = (w.first + w.count) mod Array.length w.w_cells in
  w.w_cells.(i) <- cell;
  w.w_tags.(i) <- (seq lsl 1) lor if dup then 1 else 0;
  w.count <- w.count + 1;
  Engine.reschedule_at t.eng ~time w.w_handles.(i)

let send t cell =
  (* Cell k of a PDU travels on link k mod n (paper 2.6): the link choice
     is a deterministic function of the cell's AAL sequence number, so the
     receiver's per-link reassembly can reconstruct each cell's position
     from (link, per-link arrival index) alone, even when PDUs of several
     VCs are interleaved on the striped trunk. Under link failure the
     stripe narrows to the surviving channels (in ascending order), and
     the sender's segmentation is expected to use [nlive] for the stripe
     width so both ends agree. *)
  let nlive = Array.length t.live in
  let seq = t.send_seq in
  t.send_seq <- seq + 1;
  Metrics.incr t.m.m_sent;
  if nlive = 0 then begin
    Metrics.incr t.m.m_dropped_link_down;
    if Trace.on Trace.Fault then
      Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
        "cell lost: all links down trunk_seq=%d" seq
  end
  else begin
    let l = t.live.(Cell.seq cell mod nlive) in
    if Trace.on Trace.Link then
      Trace.emitf Trace.Link ~now:(Engine.now t.eng)
        "cell vci=%d seq=%d -> link %d" (Cell.vci cell) (Cell.seq cell) l;
    (* Backpressure: the channel's output FIFO lets us book at most
       [tx_fifo_cells] cell-times ahead of the present. *)
    let horizon = Engine.now t.eng + (t.cfg.tx_fifo_cells * t.cell_time) in
    if t.busy_until.(l) > horizon then
      Process.sleep t.eng (t.busy_until.(l) - horizon);
    let now = Engine.now t.eng in
    let start = max now t.busy_until.(l) in
    let finish = start + t.cell_time in
    t.busy_until.(l) <- finish;
    if Rng.chance t.rng t.drop_prob then begin
      Metrics.incr t.m.m_dropped_net;
      if Trace.on Trace.Link then
        Trace.emitf Trace.Link ~now:(Engine.now t.eng)
          "cell lost on link %d trunk_seq=%d" l seq
    end
    else begin
      let cell =
        if Rng.chance t.rng t.corrupt_prob then begin
          Metrics.incr t.m.m_corrupted;
          Cell.corrupt cell ~byte:(Rng.int t.rng Cell.data_size)
        end
        else cell
      in
      (* Header corruption mangles the VCI (misdelivery to another VC) or
         the AAL sequence number (mis-striping) rather than the payload;
         both escapes are caught downstream — unknown-VC drop or CRC.
         Guarded so the draw sequence is unchanged when disabled. *)
      let cell =
        if
          t.corrupt_header_prob > 0.0
          && Rng.chance t.rng t.corrupt_header_prob
        then begin
          Metrics.incr t.m.m_header_corrupted;
          let flip = 1 + Rng.int t.rng 7 in
          if Rng.bool t.rng then begin
            if Trace.on Trace.Fault then
              Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
                "header corrupt vci %d -> %d trunk_seq=%d" (Cell.vci cell)
                (Cell.vci cell lxor flip) seq;
            Cell.relabel cell ~vci:(Cell.vci cell lxor flip)
              ~marked:(Cell.marked cell)
          end
          else begin
            if Trace.on Trace.Fault then
              Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
                "header corrupt seq %d -> %d trunk_seq=%d" (Cell.seq cell)
                (Cell.seq cell lxor flip) seq;
            Cell.with_seq cell (Cell.seq cell lxor flip)
          end
        end
        else cell
      in
      let jitter =
        if t.cfg.jitter_mean = 0 then 0
        else
          Time.of_float_us
            (Rng.exponential t.rng
               ~mean:(Time.to_float_us t.cfg.jitter_mean))
      in
      let arrival = finish + t.cfg.propagation_delay + t.cfg.skew.(l) + jitter in
      (* Cells on one channel arrive in order and no faster than the wire. *)
      let arrival = max arrival (t.last_delivery.(l) + t.cell_time) in
      t.last_delivery.(l) <- arrival;
      launch t l ~time:arrival ~seq ~dup:false cell;
      if t.dup_prob > 0.0 && Rng.chance t.rng t.dup_prob then begin
        (* A duplicated cell follows its original on the same channel one
           cell-time later, respecting per-channel FIFO order. *)
        let arrival2 = t.last_delivery.(l) + t.cell_time in
        t.last_delivery.(l) <- arrival2;
        if Trace.on Trace.Fault then
          Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
            "cell duplicated on link %d trunk_seq=%d" l seq;
        launch t l ~time:arrival2 ~seq ~dup:true cell
      end
    end
  end

let recv t = Mailbox.recv t.inbox
let try_recv t = Mailbox.try_recv t.inbox
let pending t = Mailbox.length t.inbox

let stats t : stats =
  {
    cells_sent = Metrics.counter_value t.m.m_sent;
    cells_delivered = Metrics.counter_value t.m.m_delivered;
    dropped_fifo = Metrics.counter_value t.m.m_dropped_fifo;
    dropped_net = Metrics.counter_value t.m.m_dropped_net;
    corrupted = Metrics.counter_value t.m.m_corrupted;
    reordered = Metrics.counter_value t.m.m_reordered;
    duplicated = Metrics.counter_value t.m.m_duplicated;
    header_corrupted = Metrics.counter_value t.m.m_header_corrupted;
    dropped_link_down = Metrics.counter_value t.m.m_dropped_link_down;
  }

(* Every cell sent (plus every duplicate the fault model manufactures)
   must land in exactly one disposition bucket once the trunk drains:
   delivered into the rx mailbox, dropped at the full fifo, eaten by the
   network (drop draw or cell filter), or lost to a dead link.
   Corruption, reordering and header mangling tag a cell without
   changing its disposition, so they do not appear in the equation. *)
let offered t =
  let s = stats t in
  s.cells_sent + s.duplicated

let conservation t =
  let s = stats t in
  [
    ("cells_delivered", s.cells_delivered);
    ("dropped_fifo", s.dropped_fifo);
    ("dropped_net", s.dropped_net);
    ("dropped_link_down", s.dropped_link_down);
  ]
