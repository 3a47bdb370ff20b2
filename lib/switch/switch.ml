module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Signal = Osiris_sim.Signal
module Time = Osiris_sim.Time
module Trace = Osiris_sim.Trace
module Cell = Osiris_atm.Cell
module Atm_link = Osiris_link.Atm_link
module Metrics = Osiris_obs.Metrics
module Ctable = Osiris_classify.Table

type config = {
  nports : int;
  queue_cells : int;
  forward_latency : Time.t;
  drain_batch : int;
  mark_threshold : int;
  epd_reserve : int;
  route_oracle : bool;
}

let default_config =
  { nports = 4; queue_cells = 32; forward_latency = Time.us 2;
    drain_batch = 8; mark_threshold = 0; epd_reserve = 0;
    route_oracle = false }

(* Placeholder stored in vacated ring slots so forwarded cells are not
   pinned by the preallocated arrays. *)
let no_cell =
  Cell.make ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false
    (Bytes.make Cell.data_size '\000')

(* The output queue is a preallocated ring: enqueue and dequeue allocate
   nothing. [in_flight] counts cells the egress scheduler has pulled out
   of the ring as a batch but whose drain instant has not arrived yet —
   logically they are still queued, so occupancy and the overflow check
   use [q_len + in_flight]. The ring itself never overflows: admission
   is bounded by the same sum. *)
type port = {
  mutable ingress : Atm_link.t option;
  mutable egress : Atm_link.t option;
  ring : Cell.t array;
  mutable q_head : int;
  mutable q_len : int;
  mutable in_flight : int;
  mutable reserved : int;
      (* cells of queue capacity held back for PDUs already admitted in
         packet-discard mode; occupancy + reserved <= queue_cells always *)
  mutable up : bool;
  out_nonempty : Signal.t;
}

(* Packet-discard (EPD/PPD) bookkeeping, keyed by packed
   (in_port, in_vci): the admission verdict for the PDU currently
   arriving on that input VC. A verdict [>= 0] means admitted with that
   many reserved cells still unclaimed ([Pass r]); [shed] (-1) means
   refused at its first cell (early packet discard) or cut off mid-PDU
   (partial packet discard), every remaining cell dropped. Plain ints —
   like the packed routing values — so the per-cell admission lookup
   allocates nothing (a [Pass of int] box plus a tuple key cost two
   allocations per cell; R5 flagged both). *)
let shed = -1

(* Routing keys and values are packed [(port lsl 16) lor vci]: VCIs are
   validated to 16 bits at [add_route], so the encoding is lossless and
   the per-cell [Hashtbl.find] hashes an immediate int instead of
   allocating a tuple key per cell. *)
let pack port vci = (port lsl 16) lor vci

type stats = {
  mutable cells_in : int;
  mutable forwarded : int;
  mutable dropped_overflow : int;
  mutable dropped_no_route : int;
  mutable dropped_epd : int;
  mutable max_occupancy : int;
  mutable marked : int;
  mutable marked_forwarded : int;
}

type t = {
  eng : Engine.t;
  cfg : config;
  sw_name : string;
  ports : port array;
  routes : int Ctable.t; (* pack in_port in_vci → pack out ... *)
  pdus : int Ctable.t; (* pack in_port in_vci → verdict *)
  stats : stats;
  mutable queued : int; (* total logical occupancy, all output ports *)
  mutable marked_queued : int; (* marked cells among [queued] *)
  m_in : Metrics.counter;
  m_fwd : Metrics.counter;
  m_drop_ovf : Metrics.counter;
  m_drop_route : Metrics.counter;
  m_drop_epd : Metrics.counter;
  m_marked : Metrics.counter;
  mutable started : bool;
}

let occupancy t = t.queued

let create eng ?(name = "sw") cfg =
  if cfg.nports < 1 then invalid_arg "Switch.create: nports < 1";
  if cfg.queue_cells < 1 then invalid_arg "Switch.create: queue_cells < 1";
  if cfg.drain_batch < 1 then invalid_arg "Switch.create: drain_batch < 1";
  if cfg.mark_threshold < 0 || cfg.mark_threshold > cfg.queue_cells then
    invalid_arg "Switch.create: mark_threshold out of range";
  if cfg.epd_reserve < 0 || cfg.epd_reserve > cfg.queue_cells then
    invalid_arg "Switch.create: epd_reserve out of range";
  let ports =
    Array.init cfg.nports (fun _ ->
        {
          ingress = None;
          egress = None;
          ring = Array.make cfg.queue_cells no_cell;
          q_head = 0;
          q_len = 0;
          in_flight = 0;
          reserved = 0;
          up = true;
          out_nonempty = Signal.create eng;
        })
  in
  let t =
    {
      eng;
      cfg;
      sw_name = name;
      ports;
      (* Dummy 0 is a routing value / verdict shape, never returned: the
         empty sentinel lives in the key array. *)
      routes = Ctable.create ~oracle:cfg.route_oracle ~dummy:0 32;
      pdus = Ctable.create ~oracle:cfg.route_oracle ~dummy:0 32;
      stats =
        {
          cells_in = 0;
          forwarded = 0;
          dropped_overflow = 0;
          dropped_no_route = 0;
          dropped_epd = 0;
          max_occupancy = 0;
          marked = 0;
          marked_forwarded = 0;
        };
      queued = 0;
      marked_queued = 0;
      m_in = Metrics.counter "switch.cells_in";
      m_fwd = Metrics.counter "switch.forwarded";
      m_drop_ovf = Metrics.counter "switch.dropped_overflow";
      m_drop_route = Metrics.counter "switch.dropped_no_route";
      m_drop_epd = Metrics.counter "switch.dropped_epd";
      m_marked = Metrics.counter "switch.marked";
      started = false;
    }
  in
  Metrics.gauge_fn "switch.queued" (fun () -> float_of_int (occupancy t));
  t

let config t = t.cfg
let name t = t.sw_name
let stats t = t.stats

let check_port t fn port =
  if port < 0 || port >= t.cfg.nports then
    (invalid_arg (Printf.sprintf "Switch.%s: port %d out of range" fn port)
    [@osiris.alloc_ok "cold error path: raises, never returns"])

let attach_port t ~port ~ingress ~egress =
  check_port t "attach_port" port;
  if t.started then invalid_arg "Switch.attach_port: switch already started";
  let p = t.ports.(port) in
  if p.ingress <> None || p.egress <> None then
    invalid_arg (Printf.sprintf "Switch.attach_port: port %d in use" port);
  p.ingress <- Some ingress;
  p.egress <- Some egress

let add_route t ~in_port ~in_vci ~out_port ~out_vci =
  check_port t "add_route" in_port;
  check_port t "add_route" out_port;
  if in_vci < 0 || in_vci > 0xffff || out_vci < 0 || out_vci > 0xffff then
    invalid_arg "Switch.add_route: vci out of range";
  Ctable.add t.routes (pack in_port in_vci) (pack out_port out_vci)

let route t ~in_port ~in_vci =
  match Ctable.find t.routes (pack in_port in_vci) with
  | None -> None
  | Some rv -> Some (rv lsr 16, rv land 0xffff)

(* Routing-lookup cost accounting (demux_scale): probe statistics of the
   per-cell classification step, and the table's analytic footprint. *)
let route_stats t = Ctable.probe_stats t.routes
let reset_route_stats t = Ctable.reset_probe_stats t.routes
let route_resident_bytes t = Ctable.resident_bytes t.routes
let nroutes t = Ctable.length t.routes

let route_check t =
  List.map (fun s -> "switch routes: " ^ s) (Ctable.check t.routes)
  @ List.map (fun s -> "switch pdus: " ^ s) (Ctable.check t.pdus)

let port_occupancy t ~port =
  check_port t "port_occupancy" port;
  let p = t.ports.(port) in
  p.q_len + p.in_flight

let ring_push p cell =
  let cap = Array.length p.ring in
  let i = p.q_head + p.q_len in
  p.ring.(if i >= cap then i - cap else i) <- cell;
  p.q_len <- p.q_len + 1

let ring_take p =
  let cell = p.ring.(p.q_head) in
  p.ring.(p.q_head) <- no_cell;
  p.q_head <- (if p.q_head + 1 = Array.length p.ring then 0 else p.q_head + 1);
  p.q_len <- p.q_len - 1;
  cell

let enqueue t p ~out_vci cell =
  (* ECN-like congestion signal: a cell admitted while the output
     queue already stands at [mark_threshold] or deeper gets the
     congestion bit, so the receiver learns of the standing queue
     before it overflows (0 disables marking). Marking happens at
     admission, never after: once a cell is queued marked it can
     only leave forwarded, which is what [mark_conservation]
     checks. *)
  let mark =
    t.cfg.mark_threshold > 0 && p.q_len + p.in_flight >= t.cfg.mark_threshold
  in
  (* Cells are immutable views shared with in-flight deliveries
     (fault injection can alias one cell across two arrivals), so
     the VCI rewrite and the mark build a new view of the same data —
     but only when they change anything. *)
  let cell =
    if Cell.vci cell = out_vci && (Cell.marked cell || not mark) then cell
    else
      (Cell.relabel cell ~vci:out_vci ~marked:(Cell.marked cell || mark)
      [@osiris.alloc_ok
        "header rewrite builds a new view (header word plus the shared \
         data): cells are immutable and may be aliased by in-flight \
         deliveries; skipped when nothing changes"])
  in
  if Cell.marked cell then begin
    t.stats.marked <- t.stats.marked + 1;
    t.marked_queued <- t.marked_queued + 1;
    Metrics.incr t.m_marked
  end;
  ring_push p cell;
  t.queued <- t.queued + 1;
  if t.queued > t.stats.max_occupancy then t.stats.max_occupancy <- t.queued;
  (Signal.broadcast p.out_nonempty
  [@osiris.alloc_ok
    "waking the port scheduler resumes suspended processes (engine \
     handles); cost is per wakeup of a sleeping drain loop, not per cell"])

let drop_overflow t out_port (cell : Cell.t) =
  t.stats.dropped_overflow <- t.stats.dropped_overflow + 1;
  Metrics.incr t.m_drop_ovf;
  if Trace.on Trace.Link then
    (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
       "%s: output queue %d full (%d cells), cell vci %d dropped" t.sw_name
       out_port t.cfg.queue_cells (Cell.vci cell)
    [@osiris.alloc_ok "drop diagnostics: formats only when tracing is on"])

let drop_epd t out_port (cell : Cell.t) ~why =
  t.stats.dropped_epd <- t.stats.dropped_epd + 1;
  Metrics.incr t.m_drop_epd;
  if Trace.on Trace.Link then
    (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
       "%s: %s on output queue %d, cell vci %d seq %d dropped" t.sw_name why
       out_port (Cell.vci cell) (Cell.seq cell)
    [@osiris.alloc_ok "drop diagnostics: formats only when tracing is on"])

(* Packet-discard (EPD/PPD) admission, Romanow & Floyd style: the fate of
   a PDU is decided once, at its first cell. Admission requires room for
   [epd_reserve] cells over and above everything queued or already
   promised, and holds that reservation until the PDU's cells claim it
   (releasing any excess at the framing bit), so an admitted PDU of up to
   [epd_reserve] cells can never lose a tail cell to interleaved traffic.
   A PDU refused at its first cell is shed whole — early packet discard —
   and one that outgrows its reservation into a full queue loses its
   remaining cells — partial packet discard. Whole-PDU losses are what
   make the discipline worth its queue space: the receiving board's
   striped reassembly never sees a partial PDU, so a drop costs exactly
   one PDU instead of desynchronizing the VC's stripe phase until a
   reassembly timeout fires. *)
let ingress_cell_epd t ~in_port ~out_port ~out_vci (cell : Cell.t) =
  let p = t.ports.(out_port) in
  let key = pack in_port (Cell.vci cell) in
  (* seq 0 always opens a fresh PDU: if the previous PDU's tail was lost
     upstream of the switch, its stale verdict (and reservation) would
     otherwise pin this VC forever. Verdicts are ints ([shed] or a
     non-negative reservation); [min_int] stands for "no verdict". *)
  let state =
    if Cell.seq cell = 0 then begin
      (match Ctable.find_slot t.pdus key with
      | -1 -> ()
      | s ->
          let r = Ctable.slot_value t.pdus s in
          if r > 0 then p.reserved <- p.reserved - r);
      Ctable.remove t.pdus key;
      min_int
    end
    else
      match Ctable.find_slot t.pdus key with
      | -1 -> min_int
      | s -> Ctable.slot_value t.pdus s
  in
  let last = Cell.last_of_pdu cell in
  let occ = p.q_len + p.in_flight in
  if state = min_int then begin
    (* First cell: admit or shed the whole PDU. *)
    if occ + p.reserved + t.cfg.epd_reserve <= t.cfg.queue_cells then begin
      enqueue t p ~out_vci cell;
      if not last then begin
        let remaining = t.cfg.epd_reserve - 1 in
        p.reserved <- p.reserved + remaining;
        (Ctable.add t.pdus key remaining
        [@osiris.alloc_ok
          "per-PDU bookkeeping: amortized table growth, one insert per \
           open PDU"])
      end
    end
    else begin
      drop_epd t out_port cell ~why:"early packet discard";
      if not last then
        (Ctable.add t.pdus key shed
        [@osiris.alloc_ok "per-PDU bookkeeping, as above"])
    end
  end
  else if state > 0 then begin
    (* Admitted PDU claiming its reservation: room is guaranteed. *)
    let r = state in
    enqueue t p ~out_vci cell;
    p.reserved <- p.reserved - 1;
    if last then begin
      p.reserved <- p.reserved - (r - 1);
      Ctable.remove t.pdus key
    end
    else
      (Ctable.add t.pdus key (r - 1)
      [@osiris.alloc_ok "overwrites the PDU's existing int binding"])
  end
  else if state = 0 then begin
    (* PDU longer than its reservation: take free (unreserved) space
       while it lasts, cut the PDU off (PPD) when it runs out. *)
    if occ + p.reserved < t.cfg.queue_cells then begin
      enqueue t p ~out_vci cell;
      if last then Ctable.remove t.pdus key
    end
    else begin
      drop_epd t out_port cell ~why:"partial packet discard";
      if last then Ctable.remove t.pdus key
      else
        (Ctable.add t.pdus key shed
        [@osiris.alloc_ok "overwrites the PDU's existing int binding"])
    end
  end
  else begin
    (* [shed]: the PDU lost its admission; drop the rest of it. *)
    drop_epd t out_port cell ~why:"packet discard";
    if last then Ctable.remove t.pdus key
  end

let ingress_cell t ~port cell =
  check_port t "ingress_cell" port;
  t.stats.cells_in <- t.stats.cells_in + 1;
  Metrics.incr t.m_in;
  (* Hashed classification, cost-accounted: this probe sequence is what
     the demux_scale figure charges per forwarded cell. *)
  match Ctable.find_slot t.routes (pack port (Cell.vci cell)) with
  | -1 ->
      t.stats.dropped_no_route <- t.stats.dropped_no_route + 1;
      Metrics.incr t.m_drop_route;
      if Trace.on Trace.Link then
        (Trace.emitf Trace.Link ~now:(Engine.now t.eng)
           "%s: no route for vci %d on port %d, cell dropped" t.sw_name
           (Cell.vci cell) port
        [@osiris.alloc_ok
          "drop diagnostics: formats only when tracing is on"])
  | slot ->
      let rv = Ctable.slot_value t.routes slot in
      let out_port = rv lsr 16 and out_vci = rv land 0xffff in
      if t.cfg.epd_reserve > 0 then
        ingress_cell_epd t ~in_port:port ~out_port ~out_vci cell
      else begin
        let p = t.ports.(out_port) in
        if p.q_len + p.in_flight >= t.cfg.queue_cells then
          drop_overflow t out_port cell
        else enqueue t p ~out_vci cell
      end

(* The per-cell forwarding commitment: this is the instant the cell
   stops being "queued" and becomes "forwarded" in the conservation
   invariant, whether it is drained directly or as part of a batch. *)
let commit_forward t (cell : Cell.t) =
  t.queued <- t.queued - 1;
  t.stats.forwarded <- t.stats.forwarded + 1;
  if Cell.marked cell then begin
    t.marked_queued <- t.marked_queued - 1;
    t.stats.marked_forwarded <- t.stats.marked_forwarded + 1
  end;
  Metrics.incr t.m_fwd

let drain_one t ~port =
  check_port t "drain_one" port;
  let p = t.ports.(port) in
  if p.q_len = 0 then None
  else begin
    let cell = ring_take p in
    commit_forward t cell;
    (Some cell
    [@osiris.alloc_ok
      "option box for the synchronous test/explorer surface; the egress \
       loop spawned by start uses ring_take directly"])
  end

(* Output-port carrier state (the fabric-fault dimension): a down port
   stops draining — arrivals still enqueue and, once the queue stands
   full, overflow-drop, so conservation is untouched. Raising the port
   wakes its scheduler. *)
let set_port_state t ~port up =
  check_port t "set_port_state" port;
  let p = t.ports.(port) in
  if p.up <> up then begin
    p.up <- up;
    if Trace.on Trace.Link then
      Trace.emitf Trace.Link ~now:(Engine.now t.eng) "%s: port %d %s" t.sw_name
        port
        (if up then "up" else "down");
    if up then Signal.broadcast p.out_nonempty
  end

let port_up t ~port =
  check_port t "port_up" port;
  t.ports.(port).up

(* One consumer per ingress link: every arriving cell runs the routing +
   output-enqueue step the instant the link delivers it (input queueing is
   the link's receive FIFO; contention lives in the output queues). *)
let ingress_loop t port link () =
  let rec loop () =
    let _ch, cell = Atm_link.recv link in
    ingress_cell t ~port cell;
    loop ()
  in
  loop ()

(* One scheduler per output port: dequeue, hold the cell for the fabric's
   per-cell forwarding latency, then hand it to the egress link (whose
   [send] models serialization backpressure and re-stripes by AAL seq).

   Cells are pulled from the ring up to [drain_batch] at a time to save
   one queue round-trip per cell, but each one is committed (counted
   forwarded, removed from the logical occupancy) only when its own
   latency slot starts — exactly the instants a one-cell-per-wakeup
   drain would commit them — so drop decisions, occupancy readings and
   the conservation invariant are untouched by the batch size. *)
let egress_loop t port link () =
  let p = t.ports.(port) in
  let batch = Array.make t.cfg.drain_batch no_cell in
  let rec loop () =
    let n = if p.up then min t.cfg.drain_batch p.q_len else 0 in
    if n = 0 then begin
      Signal.wait p.out_nonempty;
      loop ()
    end
    else begin
      for i = 0 to n - 1 do
        batch.(i) <- ring_take p
      done;
      p.in_flight <- p.in_flight + n;
      for i = 0 to n - 1 do
        p.in_flight <- p.in_flight - 1;
        commit_forward t batch.(i);
        Process.sleep t.eng t.cfg.forward_latency;
        Atm_link.send link batch.(i);
        batch.(i) <- no_cell
      done;
      loop ()
    end
  in
  loop ()

let start t =
  if t.started then invalid_arg "Switch.start: already started";
  t.started <- true;
  Array.iteri
    (fun i p ->
      (match p.ingress with
      | Some link ->
          Process.spawn t.eng
            ~name:(Printf.sprintf "%s.in%d" t.sw_name i)
            (ingress_loop t i link)
      | None -> ());
      match p.egress with
      | Some link ->
          Process.spawn t.eng
            ~name:(Printf.sprintf "%s.out%d" t.sw_name i)
            (egress_loop t i link)
      | None -> ())
    t.ports

let conservation t =
  [
    ("forwarded", t.stats.forwarded);
    ("queued", occupancy t);
    ("dropped_overflow", t.stats.dropped_overflow);
    ("dropped_no_route", t.stats.dropped_no_route);
    ("dropped_epd", t.stats.dropped_epd);
  ]

(* Marked cells are admitted marked and can only leave forwarded (there
   is no drop-from-queue path), so at every instant
   marked = marked_forwarded + marked cells still queued. *)
let mark_conservation t =
  [
    ("marked_forwarded", t.stats.marked_forwarded);
    ("marked_queued", t.marked_queued);
  ]
