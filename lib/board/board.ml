open Osiris_sim
module Trace = Osiris_sim.Trace
module Metrics = Osiris_obs.Metrics
module Hist = Osiris_util.Stats.Histogram
module Cell = Osiris_atm.Cell
module Atm_link = Osiris_link.Atm_link
module Sar = Osiris_atm.Sar
module Pbuf = Osiris_mem.Pbuf
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel
module Ctable = Osiris_classify.Table

type dma_mode = Single_cell | Double_cell

type tx_mux = Cell_interleave | Pdu_at_once

type config = {
  dma_mode : dma_mode;
  tx_mux : tx_mux;
  queue_size : int;
  locking : Desc_queue.locking;
  reassembly : Sar.strategy;
  nlinks : int;
  i960_hz : int;
  tx_cycles_per_cell : int;
  rx_cycles_per_cell : int;
  combine_saving_cycles : int;
  tx_combine_saving_cycles : int;
  queue_word_cycles : int;
  n_channels : int;
  max_pdu_cells : int;
  page_size : int;
  rx_fifo_cells : int;
  reassembly_timeout : Time.t;
  irq_reassert : Time.t;
  demux_oracle : bool;
}

let default_config =
  {
    (* The configuration the paper actually ran hosts with: single-cell
       DMA transmit (the longer-transfer transmit hardware was still
       "underway"); receive-side double-cell DMA is an experiment toggle.
       This also keeps a sender slower than a same-generation receiver
       (325 vs 340 Mb/s on the DECstation), which is what made sustained
       host-to-host trains stable. *)
    dma_mode = Single_cell;
    tx_mux = Cell_interleave;
    queue_size = 64;
    locking = Desc_queue.Lock_free;
    reassembly = Sar.Per_link 4;
    nlinks = 4;
    i960_hz = 25_000_000;
    tx_cycles_per_cell = 27;
    rx_cycles_per_cell = 15;
    combine_saving_cycles = 9;
    tx_combine_saving_cycles = 14;
    queue_word_cycles = 2;
    n_channels = 16;
    max_pdu_cells = 8192;
    page_size = 4096;
    rx_fifo_cells = 32;
    (* Both recovery timers default off: enabling them leaves timer events
       in the engine heap, which would shift the quiescence clock of every
       seeded experiment that predates the fault layer. *)
    reassembly_timeout = 0;
    irq_reassert = 0;
    (* The VC demux's Hashtbl mirror: free differential checking in tests
       and experiments, off in the default (performance) configuration. *)
    demux_oracle = false;
  }

type interrupt_reason =
  | Rx_nonempty of int
  | Tx_half_empty of int
  | Protection_violation of int

type stats = {
  mutable cells_sent : int;
  mutable cells_received : int;
  mutable pdus_sent : int;
  mutable pdus_received : int;
  mutable dma_tx_transactions : int;
  mutable dma_rx_transactions : int;
  mutable combined_dmas : int;
  mutable boundary_splits : int;
  mutable pdus_dropped_no_buffer : int;
  mutable cells_dropped : int;
  mutable reassembly_errors : int;
  mutable protection_faults : int;
  mutable unknown_vci_cells : int;
  mutable reassembly_timeouts : int;
  mutable restripe_aborts : int;
  mutable interrupts_suppressed : int;
  mutable irq_reasserts : int;
}

(* Registry handles behind [stats]; [stats t] snapshots them. *)
type m = {
  m_cells_sent : Metrics.counter;
  m_cells_received : Metrics.counter;
  m_pdus_sent : Metrics.counter;
  m_pdus_received : Metrics.counter;
  m_dma_tx : Metrics.counter;
  m_dma_rx : Metrics.counter;
  m_combined_dmas : Metrics.counter;
  m_boundary_splits : Metrics.counter;
  m_pdus_dropped_no_buffer : Metrics.counter;
  m_cells_dropped : Metrics.counter;
  m_reassembly_errors : Metrics.counter;
  m_protection_faults : Metrics.counter;
  m_unknown_vci_cells : Metrics.counter;
  m_reassembly_timeouts : Metrics.counter;
  m_restripe_aborts : Metrics.counter;
  m_interrupts_suppressed : Metrics.counter;
  m_irq_reasserts : Metrics.counter;
  m_dma_bytes : Hist.h;  (** sizes of actual receive bus transactions *)
}

let make_board_metrics () =
  {
    m_cells_sent = Metrics.counter "board.tx.cells_sent";
    m_cells_received = Metrics.counter "board.rx.cells_received";
    m_pdus_sent = Metrics.counter "board.tx.pdus_sent";
    m_pdus_received = Metrics.counter "board.rx.pdus_received";
    m_dma_tx = Metrics.counter "board.tx.dma_transactions";
    m_dma_rx = Metrics.counter "board.rx.dma_transactions";
    m_combined_dmas = Metrics.counter "board.rx.combined_dmas";
    m_boundary_splits = Metrics.counter "board.dma.boundary_splits";
    m_pdus_dropped_no_buffer = Metrics.counter "board.rx.pdus_dropped_no_buffer";
    m_cells_dropped = Metrics.counter "board.rx.cells_dropped";
    m_reassembly_errors = Metrics.counter "board.rx.reassembly_errors";
    m_protection_faults = Metrics.counter "board.tx.protection_faults";
    m_unknown_vci_cells = Metrics.counter "board.rx.unknown_vci_cells";
    m_reassembly_timeouts = Metrics.counter "board.rx.reassembly_timeouts";
    m_restripe_aborts = Metrics.counter "board.rx.restripe_aborts";
    m_interrupts_suppressed = Metrics.counter "board.irq.suppressed";
    m_irq_reasserts = Metrics.counter "board.irq.reasserts";
    m_dma_bytes =
      Metrics.histogram "board.rx.dma_span_bytes" ~lo:0. ~hi:128. ~buckets:16;
  }

(* A PDU being transmitted. It is framed once, at load time, straight
   from its host buffers into [framed]; its cells are views of that
   buffer, cut as they are emitted. *)
type tx_pdu = {
  framed : Bytes.t;
  vci : int;
  nlinks : int; (* stripe width the PDU was segmented for *)
  ncells : int;
  data_len : int;
  chain : Desc.t list;
  nchain : int;
  mutable next : int;
}

type channel = {
  id : int;
  tx_q : Desc_queue.t;
  free_q : Desc_queue.t;
  rx_q : Desc_queue.t;
  mutable priority : int;
  mutable allowed : Pbuf.t list option;
  mutable txst : tx_pdu option;
  mutable peek_ahead : int; (* descriptors consumed but not yet advanced *)
  mutable reassert_armed : bool; (* rx interrupt watchdog scheduled *)
  mutable reassert_h : Engine.handle option; (* watchdog timer, re-armed in place *)
  mutable free_gated : bool; (* fault injection: free queue yields nothing *)
}

type rxbuf = { bdesc : Desc.t; mutable filled : int; mutable posted : bool }

(* The per-PDU buffer side table. Indices are dense (buffer 0, 1, ... of
   the PDU being reassembled), so a growable option array replaces the
   old per-VC [Hashtbl]: two words per slot instead of a bucket chain,
   and a reset that just refills the array. At thousands of VCs this is
   most of the per-VC resident state. *)
type bufset = { mutable bs_slots : rxbuf option array; mutable bs_set : int }

let bufs_create () = { bs_slots = Array.make 4 None; bs_set = 0 }

let bufs_get bs idx =
  if idx < Array.length bs.bs_slots then bs.bs_slots.(idx) else None

let bufs_set bs idx b =
  let cap = Array.length bs.bs_slots in
  if idx >= cap then begin
    let bigger = Array.make (max (idx + 1) (cap * 2)) None in
    Array.blit bs.bs_slots 0 bigger 0 cap;
    bs.bs_slots <- bigger
  end;
  if bs.bs_slots.(idx) = None then bs.bs_set <- bs.bs_set + 1;
  bs.bs_slots.(idx) <- Some b

let bufs_reset bs =
  if bs.bs_set > 0 then
    Array.fill bs.bs_slots 0 (Array.length bs.bs_slots) None;
  bs.bs_set <- 0

let bufs_iter f bs =
  if bs.bs_set > 0 then
    Array.iter (function Some b -> f b | None -> ()) bs.bs_slots

let bufs_fold f bs init =
  let acc = ref init in
  bufs_iter (fun b -> acc := f b !acc) bs;
  !acc

type vc_state = {
  vci : int;
  mutable channel : channel;
  mutable sar : Sar.t; (* replaced when the stripe narrows/widens *)
  mutable last_progress : Time.t; (* last successful placement (timeout) *)
  bufs : bufset; (* buffer index within current PDU *)
  mutable buf_size : int; (* capacity of this PDU's buffers; 0 = none yet *)
  mutable next_post : int;
  mutable total : int; (* framed total once known; -1 before *)
  mutable dropping : bool;
  fbufs : Desc.t Queue.t; (* per-VCI preallocated buffers (cached fbufs) *)
  stash : (int * Cell.t) Queue.t;
      (* skew: cells of the next PDU arriving on links whose sub-stream of
         the current PDU already finished; replayed after completion *)
}

(* Receive-side DMA work for one cell: write its data, which the command
   views rather than copies, to host memory, then hand the host the
   buffers that data completed. The data lands in one bus transaction
   unless it crosses a receive-buffer or page boundary. Commands are
   pooled records ({!next_dma_cmd}). *)
type dma_cmd = {
  mutable cell : Cell.t;
  mutable addr : int; (* where the first transaction lands *)
  mutable len : int; (* its length: the whole cell unless the data is split *)
  mutable more : (int * int) list;
      (* (phys addr, len) of any further transactions *)
  mutable vc : vc_state; (* whose channel receives [posts] *)
  mutable posts : Desc.t list;
      (* descriptors to post once the data has landed *)
  mutable busy : bool; (* handed out and not yet retired *)
}

(* Transmit-side DMA work: fetch cells [first, first + count) of a PDU
   from host memory, then emit them. Queued so the i960's per-cell work
   overlaps the DMA engine (they are separate units on the board).
   Pooled like [dma_cmd]. *)
type tx_fetch_cmd = {
  mutable f_pdu : tx_pdu;
  mutable f_ch : channel;
  mutable f_first : int;
  mutable f_count : int;
  mutable f_last : bool; (* the PDU's final fetch: completes it afterwards *)
  mutable f_busy : bool;
}

type t = {
  eng : Engine.t;
  bus : Tc.t;
  mem : Phys_mem.t;
  cfg : config;
  on_interrupt : interrupt_reason -> unit;
  on_dma_write : addr:int -> len:int -> unit;
  channels : channel array;
  mutable n_open : int;
  vcs : vc_state Ctable.t; (* the on-board VC classification table *)
  tx_work : Signal.t;
  mutable tx_kicks : int; (* synchronous enqueue counter; see tx_processor *)
  tx_fetch_q : tx_fetch_cmd Mailbox.t;
  tx_out : Cell.t Mailbox.t;
  rx_dma_q : dma_cmd Mailbox.t;
  tx_cmds : tx_fetch_cmd array; (* pool behind [tx_fetch_q] *)
  mutable tx_cmd_next : int;
  rx_cmds : dma_cmd array; (* pool behind [rx_dma_q] *)
  mutable rx_cmd_next : int;
  mutable tx_link : Atm_link.t option;
  mutable rx_link : Atm_link.t option;
  rx_link_map : int array; (* physical channel -> logical stripe index *)
  mutable rx_strategy : Sar.strategy; (* current (possibly narrowed) *)
  sweep_work : Signal.t; (* wakes the reassembly-timeout sweeper *)
  mutable irq_filter : (interrupt_reason -> bool) option;
  mutable recv_fn : (unit -> int * Cell.t) option;
  mutable try_recv_fn : (unit -> (int * Cell.t) option) option;
  pending_cells : (int * Cell.t) Queue.t;
  no_dma : dma_cmd; (* [place_cell]'s answer when buffers run out *)
  mutable rr_cursor : int;
  mutable started : bool;
  m : m;
}

let i960_time t cycles =
  ((cycles * 1_000_000_000) + t.cfg.i960_hz - 1) / t.cfg.i960_hz

let i960_work t cycles = Process.sleep t.eng (i960_time t cycles)

let make_hooks eng bus cfg =
  {
    Desc_queue.host_pio_read = (fun n -> Tc.pio_read_words bus ~words:n);
    host_pio_write = (fun n -> Tc.pio_write_words bus ~words:n);
    board_access =
      (fun n ->
        Process.sleep eng
          (((n * cfg.queue_word_cycles * 1_000_000_000) + cfg.i960_hz - 1)
          / cfg.i960_hz));
  }

let make_channel eng bus cfg id =
  let hooks = make_hooks eng bus cfg in
  let mk metrics_prefix direction =
    Desc_queue.create eng ~metrics_prefix ~size:cfg.queue_size ~direction
      ~locking:cfg.locking ~hooks ()
  in
  {
    id;
    tx_q = mk "board.txq" Desc_queue.Host_to_board;
    free_q = mk "board.freeq" Desc_queue.Host_to_board;
    rx_q = mk "board.rxq" Desc_queue.Board_to_host;
    priority = if id = 0 then 0 else 1;
    allowed = None;
    txst = None;
    peek_ahead = 0;
    reassert_armed = false;
    reassert_h = None;
    free_gated = false;
  }

(* Returned by [place_cell] when the PDU must be dropped for lack of
   buffers; never submitted. Also the initial contents of the receive
   command pool. *)
let no_dma vc =
  { cell = Cell.make ~vci:0 ~seq:0 ~eom:false ~last_of_pdu:false
      (Bytes.make Cell.data_size '\000');
    addr = 0; len = 0; more = []; vc; posts = []; busy = false }

(* The DMA command queues' depths. Each command pool holds the queue's
   capacity, plus the record its producer fills before the send
   returns, plus the records its consumer holds: one for the transmit
   DMA engine, two for the receive one (a double-cell combine). Records
   are handed out round-robin, so a slot comes round again only after
   every other slot has been handed out since. *)
let tx_fetch_depth = 2
let rx_dma_depth = 4
let tx_cmd_pool = tx_fetch_depth + 1 + 1
let rx_cmd_pool = rx_dma_depth + 1 + 2

let create eng ~bus ~mem ~on_interrupt ?(on_dma_write = fun ~addr:_ ~len:_ -> ())
    cfg =
  if cfg.n_channels < 1 then invalid_arg "Board.create: need >= 1 channel";
  let channels =
    Array.init cfg.n_channels (fun id -> make_channel eng bus cfg id)
  in
  (* Fills the classification table's empty value slots; never returned
     by a lookup (its key is the empty sentinel). *)
  let dummy_vc =
    {
      vci = -1;
      channel = channels.(0);
      sar = Sar.create cfg.reassembly ~max_cells:cfg.max_pdu_cells;
      last_progress = 0;
      bufs = bufs_create ();
      buf_size = 0;
      next_post = 0;
      total = -1;
      dropping = false;
      fbufs = Queue.create ();
      stash = Queue.create ();
    }
  in
  let dummy_pdu =
    { framed = Bytes.empty; vci = -1; nlinks = 1; ncells = 0; data_len = 0;
      chain = []; nchain = 0; next = 0 }
  in
  let t =
    {
      eng;
      bus;
      mem;
      cfg;
      on_interrupt;
      on_dma_write;
      channels;
      n_open = 1;
      vcs = Ctable.create ~oracle:cfg.demux_oracle ~dummy:dummy_vc 32;
      tx_work = Signal.create eng;
      tx_kicks = 0;
      tx_fetch_q = Mailbox.create eng ~capacity:tx_fetch_depth ();
      tx_out = Mailbox.create eng ~capacity:4 ();
      rx_dma_q = Mailbox.create eng ~capacity:rx_dma_depth ();
      tx_cmds =
        Array.init tx_cmd_pool (fun _ ->
            { f_pdu = dummy_pdu; f_ch = channels.(0); f_first = 0;
              f_count = 0; f_last = false; f_busy = false });
      tx_cmd_next = 0;
      rx_cmds = Array.init rx_cmd_pool (fun _ -> no_dma dummy_vc);
      rx_cmd_next = 0;
      tx_link = None;
      rx_link = None;
      rx_link_map = Array.init cfg.nlinks (fun i -> i);
      rx_strategy = cfg.reassembly;
      sweep_work = Signal.create eng;
      irq_filter = None;
      recv_fn = None;
      try_recv_fn = None;
      pending_cells = Queue.create ();
      no_dma = no_dma dummy_vc;
      rr_cursor = 0;
      started = false;
      m = make_board_metrics ();
    }
  in
  t

let config t = t.cfg
let engine t = t.eng

(* The next pooled command record. Reaching a slot still in flight means
   the pool is smaller than the commands its queue can hold, and the
   record would be overwritten under its consumer: fail loudly. *)
let next_fetch_cmd t =
  let c = t.tx_cmds.(t.tx_cmd_next) in
  if c.f_busy then
    (failwith "Board: tx fetch command reused while in flight"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  c.f_busy <- true;
  t.tx_cmd_next <- (t.tx_cmd_next + 1) mod tx_cmd_pool;
  c

let next_dma_cmd t =
  let c = t.rx_cmds.(t.rx_cmd_next) in
  if c.busy then
    (failwith "Board: rx DMA command reused while in flight"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  c.busy <- true;
  t.rx_cmd_next <- (t.rx_cmd_next + 1) mod rx_cmd_pool;
  c

let stats t : stats =
  {
    cells_sent = Metrics.counter_value t.m.m_cells_sent;
    cells_received = Metrics.counter_value t.m.m_cells_received;
    pdus_sent = Metrics.counter_value t.m.m_pdus_sent;
    pdus_received = Metrics.counter_value t.m.m_pdus_received;
    dma_tx_transactions = Metrics.counter_value t.m.m_dma_tx;
    dma_rx_transactions = Metrics.counter_value t.m.m_dma_rx;
    combined_dmas = Metrics.counter_value t.m.m_combined_dmas;
    boundary_splits = Metrics.counter_value t.m.m_boundary_splits;
    pdus_dropped_no_buffer = Metrics.counter_value t.m.m_pdus_dropped_no_buffer;
    cells_dropped = Metrics.counter_value t.m.m_cells_dropped;
    reassembly_errors = Metrics.counter_value t.m.m_reassembly_errors;
    protection_faults = Metrics.counter_value t.m.m_protection_faults;
    unknown_vci_cells = Metrics.counter_value t.m.m_unknown_vci_cells;
    reassembly_timeouts = Metrics.counter_value t.m.m_reassembly_timeouts;
    restripe_aborts = Metrics.counter_value t.m.m_restripe_aborts;
    interrupts_suppressed = Metrics.counter_value t.m.m_interrupts_suppressed;
    irq_reasserts = Metrics.counter_value t.m.m_irq_reasserts;
  }

(* Interrupt delivery with an optional loss filter (fault injection): a
   filter returning false eats the assertion. Recovery from a lost
   Rx_nonempty relies on the [irq_reassert] watchdog below. *)
let raise_interrupt t reason =
  match t.irq_filter with
  | Some f when not (f reason) ->
      Metrics.incr t.m.m_interrupts_suppressed;
      if Trace.on Trace.Fault then
        Trace.emitf Trace.Fault ~now:(Engine.now t.eng) "interrupt suppressed"
  | _ -> t.on_interrupt reason

let set_irq_filter t f = t.irq_filter <- f

(* Watchdog for lost receive interrupts: while a channel's receive queue
   stays non-empty, re-assert Rx_nonempty every [irq_reassert] ns. The
   event chain terminates as soon as the host drains the queue, so an
   enabled watchdog adds no events at quiescence. *)
let rec arm_reassert t ch =
  if t.cfg.irq_reassert > 0 && not ch.reassert_armed then begin
    ch.reassert_armed <- true;
    match ch.reassert_h with
    | Some h ->
        (* The previous timer has fired ([reassert_armed] was false), so
           the handle and its closure can be re-armed in place instead
           of allocating fresh ones every watchdog period. *)
        Engine.reschedule t.eng ~delay:t.cfg.irq_reassert h
    | None ->
        ch.reassert_h <-
          Some
            (Engine.schedule t.eng ~delay:t.cfg.irq_reassert (fun () ->
                 ch.reassert_armed <- false;
                 if Desc_queue.count ch.rx_q > 0 then begin
                   Metrics.incr t.m.m_irq_reasserts;
                   raise_interrupt t (Rx_nonempty ch.id);
                   arm_reassert t ch
                 end))
  end

let kernel_channel t = t.channels.(0)

let open_channel t ?(priority = 1) () =
  if t.n_open >= t.cfg.n_channels then
    failwith "Board.open_channel: all queue pages in use";
  let ch = t.channels.(t.n_open) in
  t.n_open <- t.n_open + 1;
  ch.priority <- priority;
  ch

let channel_id ch = ch.id
let tx_queue ch = ch.tx_q
let free_queue ch = ch.free_q
let rx_queue ch = ch.rx_q
let set_allowed_pages ch allowed = ch.allowed <- allowed
let set_priority ch p = ch.priority <- p

let set_free_gate t ~ch gated =
  if ch < 0 || ch >= t.cfg.n_channels then
    invalid_arg "Board.set_free_gate: channel out of range";
  t.channels.(ch).free_gated <- gated

let free_gated t ~ch =
  if ch < 0 || ch >= t.cfg.n_channels then
    invalid_arg "Board.free_gated: channel out of range";
  t.channels.(ch).free_gated

let bind_vci t ~vci ch =
  if vci < 0 then invalid_arg "Board.bind_vci: negative VCI";
  if Ctable.mem t.vcs vci then invalid_arg "Board.bind_vci: VCI in use";
  Ctable.add t.vcs vci
    {
      vci;
      channel = ch;
      sar = Sar.create t.rx_strategy ~max_cells:t.cfg.max_pdu_cells;
      last_progress = 0;
      bufs = bufs_create ();
      buf_size = 0;
      next_post = 0;
      total = -1;
      dropping = false;
      fbufs = Queue.create ();
      stash = Queue.create ();
    }

let unbind_vci t ~vci = Ctable.remove t.vcs vci

let supply_vci_buffer t ~vci desc =
  match Ctable.find t.vcs vci with
  | None -> invalid_arg "Board.supply_vci_buffer: unbound VCI"
  | Some vc ->
      if Queue.length vc.fbufs >= t.cfg.queue_size then false
      else begin
        (* Host writes the descriptor into the VC's buffer list in
           dual-port memory: same cost as a free-queue enqueue. *)
        Tc.pio_write_words t.bus ~words:(Desc.words + 1);
        Queue.add desc vc.fbufs;
        true
      end

let vci_buffer_count t ~vci =
  match Ctable.find t.vcs vci with
  | None -> 0
  | Some vc -> Queue.length vc.fbufs

(* Demultiplexing cost accounting: probe statistics of the on-board VC
   classification table, and its (analytic) resident footprint. *)
let demux_stats t = Ctable.probe_stats t.vcs
let reset_demux_stats t = Ctable.reset_probe_stats t.vcs
let demux_resident_bytes t = Ctable.resident_bytes t.vcs
let demux_vcs t = Ctable.length t.vcs

let demux_check t =
  List.map (fun s -> "board demux: " ^ s) (Ctable.check t.vcs)

(* [Stdlib.min] is polymorphic and compares through the runtime. *)
let imin (a : int) b = if a < b then a else b

(* ------------------------------------------------------------------ *)
(* Transmit side. *)

let validate_chain t ch chain =
  match ch.allowed with
  | None -> true
  | Some ranges ->
      let ok (d : Desc.t) =
        List.exists
          (fun (r : Pbuf.t) ->
            d.Desc.addr >= r.Pbuf.addr
            && d.Desc.addr + d.Desc.len <= r.Pbuf.addr + r.Pbuf.len)
          ranges
      in
      let all_ok = List.for_all ok chain in
      if not all_ok then begin
        Metrics.incr t.m.m_protection_faults;
        raise_interrupt t (Protection_violation ch.id)
      end;
      all_ok

(* Stripe width segmentation targets: the live channels of the outgoing
   trunk, so framing bits land where the receiver's narrowed per-link
   reassembly expects them. Falls back to the configured width when every
   channel is down (the cells vanish at the link anyway). *)
let tx_stripe_width t =
  match t.tx_link with
  | Some l ->
      let n = Atm_link.nlive l in
      if n > 0 then n else t.cfg.nlinks
  | None -> t.cfg.nlinks

(* Read the next PDU chain from a channel's transmit queue (without
   advancing the tail) and set up segmentation state. *)
let try_load_pdu t ch =
  match ch.txst with
  | Some _ -> true
  | None -> (
      match Desc_queue.board_peek ch.tx_q ch.peek_ahead with
      | None -> false
      | Some _first ->
          (* Collect descriptors up to eop. *)
          let rec collect i acc =
            match Desc_queue.board_peek ch.tx_q (ch.peek_ahead + i) with
            | None -> None (* chain incomplete: host still writing it *)
            | Some d ->
                if d.Desc.eop then Some (List.rev (d :: acc))
                else collect (i + 1) (d :: acc)
          in
          (match collect 0 [] with
          | None ->
              if Trace.on Trace.Board_tx then
                Trace.emitf Trace.Board_tx ~now:(Engine.now t.eng)
                  "ch%d chain incomplete (ahead=%d count=%d)" ch.id
                  ch.peek_ahead (Desc_queue.count ch.tx_q);
              false
          | Some chain ->
              let nchain = List.length chain in
              if not (validate_chain t ch chain) then begin
                (* Faulted chains are discarded immediately; nothing is in
                   flight for them. *)
                Desc_queue.board_advance ch.tx_q nchain;
                false
              end
              else begin
                if Trace.on Trace.Board_tx then
                  Trace.emitf Trace.Board_tx ~now:(Engine.now t.eng)
                    "ch%d load chain [%s]" ch.id
                    (String.concat ";"
                       (List.map
                          (fun (d : Desc.t) ->
                            Printf.sprintf "%d%s" d.Desc.len
                              (if d.Desc.eop then "*" else ""))
                          chain));
                ch.peek_ahead <- ch.peek_ahead + nchain;
                let data_len =
                  List.fold_left (fun n (d : Desc.t) -> n + d.Desc.len) 0 chain
                in
                let framed = Bytes.make (Sar.framed_len data_len) '\000' in
                ignore
                  (List.fold_left
                     (fun off (d : Desc.t) ->
                       Phys_mem.blit_to_bytes t.mem ~src:d.Desc.addr
                         ~dst:framed ~dst_off:off ~len:d.Desc.len;
                       off + d.Desc.len)
                     0 chain);
                Sar.seal framed ~len:data_len;
                ch.txst <-
                  Some
                    {
                      framed;
                      vci = (List.hd chain).Desc.vci;
                      nlinks = tx_stripe_width t;
                      ncells = Bytes.length framed / Cell.data_size;
                      data_len;
                      chain;
                      nchain;
                      next = 0;
                    };
                true
              end))

(* Walk the physical spans behind bytes [off, off + len) of the PDU data
   laid out along its descriptor chain: one bus transaction per buffer
   crossing and per page boundary (the §2.5.2 boundary-stop behaviour).
   Issues a DMA read for each span when [issue]; returns [n] plus the
   number of spans. *)
let rec fetch_spans t chain ~off ~len ~issue n =
  if len = 0 then n
  else
    match chain with
    | [] -> invalid_arg "Board: range beyond descriptor chain"
    | (d : Desc.t) :: rest ->
        if off >= d.Desc.len then
          fetch_spans t rest ~off:(off - d.Desc.len) ~len ~issue n
        else begin
          let addr = d.Desc.addr + off in
          let page = t.cfg.page_size in
          let chunk =
            imin (imin len (d.Desc.len - off)) (page - (addr mod page))
          in
          if issue then Tc.dma_read t.bus ~bytes:chunk;
          fetch_spans t chain ~off:(off + chunk) ~len:(len - chunk) ~issue
            (n + 1)
        end

let finish_pdu t ch (pdu : tx_pdu) =
  (* Update peek_ahead BEFORE the tail advance: board_advance suspends for
     its dual-port accesses after moving the tail, and a transmit-processor
     chain scan overlapping that window must err on the side of reading
     already-consumed (empty) slots — which makes it retry — rather than
     reading slots beyond its chain, which would assemble garbage. *)
  ch.peek_ahead <- ch.peek_ahead - pdu.nchain;
  Desc_queue.board_advance ch.tx_q pdu.nchain;
  Metrics.incr t.m.m_pdus_sent;
  (* A transmit-processor scan can race this completion (board_advance
     sleeps for its dual-port accesses while peek_ahead is still stale);
     kick it so such a scan is retried with consistent state. *)
  t.tx_kicks <- t.tx_kicks + 1;
  Signal.broadcast t.tx_work;
  if Desc_queue.board_test_waiting ch.tx_q then
    raise_interrupt t (Tx_half_empty ch.id)

(* Emit one scheduling quantum (one cell, or a pair under double-cell DMA)
   from the given channel: the i960 computes the DMA command and hands it
   to the transmit DMA engine, overlapping with the previous fetch. *)
let tx_emit t ch =
  match ch.txst with
  | None -> ()
  | Some pdu ->
      let k = pdu.next in
      let remaining = pdu.ncells - k in
      let n =
        match t.cfg.dma_mode with
        | Single_cell -> 1
        | Double_cell -> min 2 remaining
      in
      let cycles =
        if n = 2 then
          max 1
            ((2 * t.cfg.tx_cycles_per_cell) - t.cfg.tx_combine_saving_cycles)
        else t.cfg.tx_cycles_per_cell
      in
      i960_work t cycles;
      pdu.next <- k + n;
      let last = pdu.next >= pdu.ncells in
      if last then ch.txst <- None;
      let c = next_fetch_cmd t in
      c.f_pdu <- pdu;
      c.f_ch <- ch;
      c.f_first <- k;
      c.f_count <- n;
      c.f_last <- last;
      Mailbox.send t.tx_fetch_q c

let tx_dma_engine t () =
  let rec loop () =
    let cmd = Mailbox.recv t.tx_fetch_q in
    let pdu = cmd.f_pdu in
    let off = cmd.f_first * Cell.data_size in
    let stop =
      imin ((cmd.f_first + cmd.f_count) * Cell.data_size) pdu.data_len
    in
    let len = if stop > off then stop - off else 0 in
    let nspans = fetch_spans t pdu.chain ~off ~len ~issue:false 0 in
    Metrics.add t.m.m_dma_tx nspans;
    if nspans > 1 then
      Metrics.add t.m.m_boundary_splits (nspans - 1);
    ignore (fetch_spans t pdu.chain ~off ~len ~issue:true 0);
    for k = cmd.f_first to cmd.f_first + cmd.f_count - 1 do
      Mailbox.send t.tx_out
        (Sar.cell_of_framed ~vci:pdu.vci ~nlinks:pdu.nlinks pdu.framed k);
      Metrics.incr t.m.m_cells_sent
    done;
    if cmd.f_last then finish_pdu t cmd.f_ch pdu;
    cmd.f_busy <- false;
    loop ()
  in
  loop ()

(* The channel to emit from next, as an index into [t.channels], or -1
   when none has work. Strict priority, round-robin within a priority
   level. Under coarse multiplexing ([Pdu_at_once]) an in-progress PDU is
   always finished first, regardless of what else is queued. *)
let rec in_progress_channel t i found =
  if i = t.cfg.n_channels then found
  else
    in_progress_channel t (i + 1)
      (if t.channels.(i).txst <> None then i else found)

(* Every channel is offered [try_load_pdu], in round-robin order, so each
   loads its next chain as soon as it can. *)
let rec best_channel t i best =
  if i = t.cfg.n_channels then best
  else begin
    let idx = (t.rr_cursor + i) mod t.cfg.n_channels in
    let ch = t.channels.(idx) in
    let best =
      if
        try_load_pdu t ch
        && (best < 0 || t.channels.(best).priority > ch.priority)
      then idx
      else best
    in
    best_channel t (i + 1) best
  end

let pick_tx_channel t =
  let busy =
    match t.cfg.tx_mux with
    | Cell_interleave -> -1
    | Pdu_at_once -> in_progress_channel t 0 (-1)
  in
  if busy >= 0 then busy
  else begin
    let idx = best_channel t 0 (-1) in
    if idx >= 0 then t.rr_cursor <- (idx + 1) mod t.cfg.n_channels;
    idx
  end

let tx_processor t () =
  let rec loop () =
    (* Snapshot the kick counter before scanning: if an enqueue lands while
       the scan's dual-port accesses are in progress, the counter moves and
       we rescan instead of sleeping through the (already fired) signal. *)
    let kicks = t.tx_kicks in
    let idx = pick_tx_channel t in
    if idx >= 0 then tx_emit t t.channels.(idx)
    else if t.tx_kicks = kicks then Signal.wait t.tx_work;
    loop ()
  in
  loop ()

let tx_sender t () =
  match t.tx_link with
  | None -> () (* transmit side unused (receive-only experiments) *)
  | Some link ->
      let rec loop () =
        let cell = Mailbox.recv t.tx_out in
        Atm_link.send link cell;
        loop ()
      in
      loop ()

(* ------------------------------------------------------------------ *)
(* Receive side. *)

let reset_vc vc =
  Sar.reset vc.sar;
  bufs_reset vc.bufs;
  (* buf_size persists: buffer pools are uniform per channel. *)
  vc.next_post <- 0;
  vc.total <- -1;
  vc.dropping <- false

(* Return the PDU's unposted buffers to the VC's private pool. *)
let recycle_buffers vc =
  bufs_iter (fun b -> if not b.posted then Queue.add b.bdesc vc.fbufs) vc.bufs

let take_free_buffer vc =
  match Queue.take_opt vc.fbufs with
  | Some _ as d -> d
  | None ->
      (* A gated channel sees an empty free queue (the injected
         starvation fault): descriptors the host enqueued stay put, so
         buffer conservation still holds — the PDU is dropped for want
         of a buffer, not leaked. *)
      if vc.channel.free_gated then None
      else Desc_queue.board_dequeue vc.channel.free_q

(* Make sure buffers [i..idx] of the current PDU exist, taking free
   buffers for the missing ones in index order; false on buffer
   exhaustion. *)
let rec ensure_buffers vc i idx =
  if i > idx then true
  else
    match bufs_get vc.bufs i with
    | Some _ -> ensure_buffers vc (i + 1) idx
    | None -> (
        match
          (take_free_buffer vc
          [@osiris.alloc_ok
            "runs once per receive buffer, not per cell: a pool or \
             free-queue descriptor (the dequeue suspends for its \
             dual-port access)"])
        with
        | None -> false
        | Some d ->
            if vc.buf_size = 0 then vc.buf_size <- d.Desc.len
            else if d.Desc.len <> vc.buf_size then
              (* The model requires uniform buffer sizes per PDU; drivers
                 supply uniform pools, so treat mismatch as exhaustion. *)
              (failwith "Board: receive buffers of one PDU must be uniform"
              [@osiris.alloc_ok "cold error path: raises"]);
            (bufs_set vc.bufs i { bdesc = d; filled = 0; posted = false }
            [@osiris.alloc_ok "one buffer record per receive buffer"]);
            ensure_buffers vc (i + 1) idx)

(* Enqueue one filled-buffer descriptor to the host. Runs in the DMA
   engine, after the buffer's final bytes have landed in memory. An
   interrupt is asserted only on the receive queue's empty -> non-empty
   transition (paper 2.1.2). *)
let deliver_desc t vc ch desc =
  if Desc_queue.board_enqueue ch.rx_q desc then begin
    (* Assert the interrupt iff ours is the only entry: the queue was empty
       at the instant of insertion (checking afterwards avoids the lost
       wake-up when the host drains while the enqueue is in progress). *)
    if Desc_queue.count ch.rx_q = 1 then raise_interrupt t (Rx_nonempty ch.id);
    (* Under fault injection the assertion above may have been eaten; the
       watchdog (when configured) re-asserts while the queue is backed up. *)
    arm_reassert t ch
  end
  else begin
    (* Receive-queue overflow: the host is hopelessly behind. The data (or
       abort marker) is lost; a real buffer returns to the VC's pool. *)
    Metrics.add t.m.m_cells_dropped (desc.Desc.len / Cell.data_size);
    if desc.Desc.len > 0 && vc.buf_size > 0 then
      Queue.add (Desc.v ~addr:desc.Desc.addr ~len:vc.buf_size ()) vc.fbufs
  end

(* Decide, at reassembly-decision time, which buffer descriptors the
   current DMA command must post once its data has landed: the in-order
   prefix of buffers that are now full and, on PDU completion, all the
   rest. Completion also resets the VC for the next PDU. Lists are built
   only when a buffer is posted, once per buffer rather than per cell. *)
let post_buffer vc idx ~eop ~marked ~len acc =
  match bufs_get vc.bufs idx with
  | Some b when not b.posted ->
      b.posted <- true;
      Desc.v ~addr:b.bdesc.Desc.addr ~len ~vci:vc.vci ~eop ~marked () :: acc
  | _ -> acc

let rec full_buffers vc acc =
  match bufs_get vc.bufs vc.next_post with
  | Some b when vc.buf_size > 0 && b.filled >= vc.buf_size ->
      let acc =
        (post_buffer vc vc.next_post ~eop:false ~marked:false ~len:vc.buf_size
           acc
        [@osiris.alloc_ok "once per filled receive buffer, not per cell"])
      in
      vc.next_post <- vc.next_post + 1;
      full_buffers vc acc
  | _ -> acc

let rec final_buffers vc ~total ~marked idx nbufs acc =
  if idx >= nbufs then acc
  else begin
    let bs = vc.buf_size in
    let eop = idx = nbufs - 1 in
    final_buffers vc ~total ~marked (idx + 1) nbufs
      (post_buffer vc idx ~eop ~marked:(eop && marked)
         ~len:(imin bs (total - (idx * bs)))
         acc)
  end

let complete_pdu t vc ~total =
  Metrics.incr t.m.m_pdus_received;
  (* The PDU's congestion bit, read before [reset_vc] clears the
     reassembly state, rides on the eop descriptor: one flag per PDU,
     exactly what the host's transport needs to echo. *)
  let marked = Sar.marked_seen vc.sar in
  let bs = vc.buf_size in
  let nbufs = if bs = 0 then 0 else (total + bs - 1) / bs in
  let posts =
    List.rev (final_buffers vc ~total ~marked vc.next_post nbufs [])
  in
  recycle_buffers vc;
  reset_vc vc;
  posts

let collect_posts t vc ~completed_total =
  if completed_total < 0 then
    (List.rev (full_buffers vc [])
    [@osiris.alloc_ok
      "reverses the descriptors of buffers this cell filled: empty, and \
       free, for all but one cell per buffer"])
  else
    (complete_pdu t vc ~total:completed_total
    [@osiris.alloc_ok
      "PDU completion: builds the final descriptors and recycles the \
       reassembly state, once per PDU"])

(* Where the placement's bytes [pos, stop) of the framed PDU start in host
   memory, and how many of them one bus transaction moves: up to the end
   of the receive buffer holding [pos] and of the page holding its
   address. Needs the buffers to exist ({!ensure_buffers}). *)
let span_addr vc pos =
  match bufs_get vc.bufs (pos / vc.buf_size) with
  | Some b -> b.bdesc.Desc.addr + (pos mod vc.buf_size)
  | None ->
      (invalid_arg "Board: placement into a missing buffer"
      [@osiris.alloc_ok "cold error path: raises"])

let span_len t vc pos stop =
  let bs = vc.buf_size and page = t.cfg.page_size in
  imin (imin (stop - pos) (bs - (pos mod bs)))
    (page - (span_addr vc pos mod page))

(* Charge a span to its buffer's fill level. *)
let charge vc pos len =
  match bufs_get vc.bufs (pos / vc.buf_size) with
  | Some b -> b.filled <- b.filled + len
  | None -> ()

let rec more_spans t vc pos stop =
  if pos >= stop then []
  else begin
    let addr = span_addr vc pos and len = span_len t vc pos stop in
    charge vc pos len;
    (addr, len) :: more_spans t vc (pos + len) stop
  end

(* Handle a placement decision: update the reassembly bookkeeping
   immediately (the receive processor owns this state) and build the DMA
   command that writes the cell's data at framed-PDU [offset] and then
   posts any now-complete buffers. [completed_total] is the framed length
   when the cell completes its PDU, else negative. Returns [t.no_dma]
   when the PDU must be dropped for lack of buffers. *)
let place_cell t vc cell ~offset ~completed_total =
  let stop = offset + Cell.data_size in
  if
    not
      ((vc.buf_size > 0 || ensure_buffers vc 0 0)
      (* the first buffer taken for a PDU fixes its buffer size *)
      && ensure_buffers vc 0 ((stop - 1) / vc.buf_size))
  then t.no_dma
  else begin
    let addr = span_addr vc offset and len = span_len t vc offset stop in
    charge vc offset len;
    let more =
      if len = Cell.data_size then []
      else
        (more_spans t vc (offset + len) stop
        [@osiris.alloc_ok
          "only a cell that crosses a buffer or page boundary is split"])
    in
    let posts = collect_posts t vc ~completed_total in
    let cmd = next_dma_cmd t in
    cmd.cell <- cell;
    cmd.addr <- addr;
    cmd.len <- len;
    cmd.more <- more;
    cmd.vc <- vc;
    cmd.posts <- posts;
    cmd
  end

let release_stash t vc = Queue.transfer vc.stash t.pending_cells

(* Abandon the VC's in-progress PDU: recycle its buffers, reset the
   reassembly and, if the host already holds part of its chain, terminate
   that chain with an abort marker (len 0, eop) so the driver discards it.
   [marker_addr] distinguishes the marker's cause on the host side: 0 for
   board-decision aborts (loss/reject/no-buffer), [timeout_marker_addr]
   for reassembly-timeout sweeps. Must run in process context when a
   marker may be emitted (the enqueue suspends). *)
let timeout_marker_addr = 1

let abort_current_pdu t vc ~marker_addr =
  let partially_posted = vc.next_post > 0 in
  recycle_buffers vc;
  reset_vc vc;
  release_stash t vc;
  if partially_posted then
    deliver_desc t vc vc.channel
      (Desc.v ~addr:marker_addr ~len:0 ~vci:vc.vci ~eop:true ())

let drop_pdu t vc =
  Metrics.incr t.m.m_pdus_dropped_no_buffer;
  abort_current_pdu t vc ~marker_addr:0;
  vc.dropping <- true

let submit_dma t cmd =
  let nspans = 1 + List.length cmd.more in
  Metrics.add t.m.m_dma_rx nspans;
  if nspans > 1 then Metrics.add t.m.m_boundary_splits (nspans - 1);
  Mailbox.send t.rx_dma_q cmd

(* Process one received cell: reassembly decision plus DMA submission. *)
let rx_handle_cell t phys_link cell =
  Metrics.incr t.m.m_cells_received;
  i960_work t t.cfg.rx_cycles_per_cell;
  (* Physical channel -> logical stripe index. Identity while the trunk is
     healthy; narrowed after a carrier loss. -1 = the channel died while
     this cell sat in the input FIFO. Stashed/reprocessed cells keep the
     physical index so they translate against the map current at
     reprocessing time. *)
  let link =
    if phys_link >= 0 && phys_link < Array.length t.rx_link_map then
      t.rx_link_map.(phys_link)
    else phys_link
  in
  if link < 0 then Metrics.incr t.m.m_cells_dropped
  else
  (* The paper's on-board early demultiplexing (§3.1), now a hashed
     classification step whose probe count the experiments charge to the
     per-cell budget via the machine's cache-cost model. *)
  match Ctable.find_slot t.vcs (Cell.vci cell) with
  | -1 -> Metrics.incr t.m.m_unknown_vci_cells
  | slot ->
      let vc = Ctable.slot_value t.vcs slot in
      if vc.dropping then begin
        Metrics.incr t.m.m_cells_dropped;
        if Cell.last_of_pdu cell then vc.dropping <- false
      end
      else if Sar.in_progress vc.sar && Sar.link_finished vc.sar ~link then begin
        if Sar.all_links_finished vc.sar then begin
          (* Every sub-stream has ended but the PDU did not complete: cells
             were lost on the wire. Abandon it so the VC cannot wedge. *)
          if Trace.on Trace.Board_rx then
            Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
              "abandon incomplete PDU vci=%d (lost cells)" (Cell.vci cell);
          Metrics.incr t.m.m_reassembly_errors;
          abort_current_pdu t vc ~marker_addr:0;
          (* reprocess this cell against the fresh state, after the
             released stash *)
          Queue.add (phys_link, cell) t.pending_cells
        end
        else begin
          (* This link's share of the current PDU is done: the cell starts
             the next PDU. Hold it until the current one completes. *)
          if Trace.on Trace.Board_rx then
            Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
              "stash vci=%d seq=%d link=%d" (Cell.vci cell) (Cell.seq cell)
              link;
          Queue.add (phys_link, cell) vc.stash
        end
      end
      else begin
        let was_in_progress = Sar.in_progress vc.sar in
        let offset = Sar.place vc.sar ~link cell in
        if offset < 0 then begin
          if Trace.on Trace.Board_rx then
            Trace.emitf Trace.Board_rx ~now:(Engine.now t.eng)
              "reject vci=%d seq=%d link=%d: %s" (Cell.vci cell)
              (Cell.seq cell) link (Sar.reject_reason vc.sar);
          Metrics.incr t.m.m_reassembly_errors;
          Metrics.incr t.m.m_cells_dropped;
          abort_current_pdu t vc ~marker_addr:0
        end
        else begin
          let completed_total = Sar.completed_len vc.sar in
          if completed_total < 0 then begin
            (* Progress for the timeout sweeper: the timer is an
               inactivity bound, restarted by every placement. Wake the
               sweeper when this VC (re)enters reassembly. *)
            vc.last_progress <- Engine.now t.eng;
            if (not was_in_progress) && t.cfg.reassembly_timeout > 0 then
              Signal.broadcast t.sweep_work
          end;
          let cmd = place_cell t vc cell ~offset ~completed_total in
          if cmd == t.no_dma then drop_pdu t vc;
          (* A completed PDU releases any held next-PDU cells for
             reprocessing, in arrival order, ahead of new arrivals. *)
          if completed_total >= 0 then release_stash t vc;
          if cmd != t.no_dma then submit_dma t cmd
        end
      end

(* Can a second cell's DMA be merged with the first's? Only when the two
   payloads are physically consecutive and in the same page. *)
let combinable (cmd1 : dma_cmd) (cmd2 : dma_cmd) ~page_size =
  cmd1.more = [] && cmd2.more = []
  && cmd2.addr = cmd1.addr + cmd1.len
  && cmd1.addr / page_size = (cmd2.addr + cmd2.len - 1) / page_size

let rx_processor t () =
  let rec loop () =
    let phys_link, cell =
      match Queue.take_opt t.pending_cells with
      | Some c -> c
      | None -> (
          match t.recv_fn with
          | Some f -> f ()
          | None -> failwith "Board: receive side not attached")
    in
    rx_handle_cell t phys_link cell;
    loop ()
  in
  loop ()

(* Move [len] bytes of a command's cell data, from [src] on, to [addr]. *)
let blit_cell t (cmd : dma_cmd) ~src ~addr ~len =
  Phys_mem.blit_from_bytes t.mem ~src:(Cell.buf cmd.cell)
    ~src_off:(Cell.off cmd.cell + src) ~dst:addr ~len

(* The bus cost of one [len]-byte transaction. *)
let dma_transaction t ~len =
  Hist.add_int t.m.m_dma_bytes len;
  Tc.dma_write t.bus ~bytes:len

let post t (cmd : dma_cmd) =
  match cmd.posts with
  | [] -> ()
  | posts -> List.iter (deliver_desc t cmd.vc cmd.vc.channel) posts

(* The command's transactions from the one landing at [addr], which
   carries the cell's data from [src] on. *)
let rec exec_spans t (cmd : dma_cmd) ~src ~addr ~len more =
  dma_transaction t ~len;
  blit_cell t cmd ~src ~addr ~len;
  t.on_dma_write ~addr ~len;
  match more with
  | [] -> ()
  | (addr', len') :: rest ->
      exec_spans t cmd ~src:(src + len) ~addr:addr' ~len:len' rest

(* Hand the host the command's buffers and return the record to its
   pool. *)
let retire t (cmd : dma_cmd) =
  post t cmd;
  cmd.busy <- false

let exec_dma t (cmd : dma_cmd) =
  exec_spans t cmd ~src:0 ~addr:cmd.addr ~len:cmd.len cmd.more;
  retire t cmd

let rx_dma_engine t () =
  let rec loop () =
    let cmd1 = Mailbox.recv t.rx_dma_q in
    (* Double-cell DMA (2.5.1): when the next queued command's payload is
       physically consecutive with this one's (and in the same page), the
       controller moves both in a single, longer bus transaction. This is
       where "looking at two cell headers" pays off: the command queue is
       non-empty whenever cells arrive as fast as they are served. *)
    (match
       if t.cfg.dma_mode = Double_cell then Mailbox.try_recv t.rx_dma_q
       else None
     with
    | Some cmd2 when combinable cmd1 cmd2 ~page_size:t.cfg.page_size ->
        let len = cmd1.len + cmd2.len in
        Metrics.incr t.m.m_combined_dmas;
        dma_transaction t ~len;
        blit_cell t cmd1 ~src:0 ~addr:cmd1.addr ~len:cmd1.len;
        blit_cell t cmd2 ~src:0 ~addr:cmd2.addr ~len:cmd2.len;
        t.on_dma_write ~addr:cmd1.addr ~len;
        retire t cmd1;
        retire t cmd2
    | Some cmd2 ->
        exec_dma t cmd1;
        exec_dma t cmd2
    | None -> exec_dma t cmd1);
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Reassembly-timeout sweeper: a board process that bounds how long a VC
   may sit mid-reassembly without progress. A cell lost on the wire on a
   quiet VC otherwise wedges that VC forever (no later traffic triggers
   the all-links-finished abandonment). Parks on a signal while nothing
   is in progress, so an enabled sweeper holds no heap events at
   quiescence beyond its final deadline check. *)

let earliest_reassembly_deadline t =
  Ctable.fold
    (fun _ vc acc ->
      if Sar.in_progress vc.sar then begin
        let dl = vc.last_progress + t.cfg.reassembly_timeout in
        match acc with Some d when d <= dl -> acc | _ -> Some dl
      end
      else acc)
    t.vcs None

let sweep_stuck_reassemblies t =
  let now = Engine.now t.eng in
  let stuck =
    Ctable.fold
      (fun _ vc acc ->
        if
          Sar.in_progress vc.sar
          && now - vc.last_progress >= t.cfg.reassembly_timeout
        then vc :: acc
        else acc)
      t.vcs []
  in
  List.iter
    (fun vc ->
      Metrics.incr t.m.m_reassembly_timeouts;
      if Trace.on Trace.Fault then
        Trace.emitf Trace.Fault ~now "reassembly timeout vci=%d (idle %d ns)"
          vc.vci (now - vc.last_progress);
      abort_current_pdu t vc ~marker_addr:timeout_marker_addr)
    stuck

let reassembly_sweeper t () =
  let rec loop () =
    (match earliest_reassembly_deadline t with
    | None -> Signal.wait t.sweep_work
    | Some dl ->
        let now = Engine.now t.eng in
        if dl > now then Process.sleep t.eng (dl - now)
        else sweep_stuck_reassemblies t);
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Carrier transition on the incoming trunk: narrow (or widen) the
   stripe. In-flight reassemblies cannot survive a width change — cell
   positions were computed under the old width — so they are aborted with
   accounting, stashed next-PDU cells are dropped, and every VC's
   reassembly state is rebuilt for the new width. Boundary PDUs that mix
   widths die by rejection or CRC; the trunk itself never stalls. *)

let handle_rx_restripe t link =
  let live = Atm_link.live_links link in
  Array.fill t.rx_link_map 0 (Array.length t.rx_link_map) (-1);
  List.iteri
    (fun logical phys ->
      if phys < Array.length t.rx_link_map then t.rx_link_map.(phys) <- logical)
    live;
  (match t.cfg.reassembly with
  | Sar.Per_link _ -> t.rx_strategy <- Sar.Per_link (max 1 (List.length live))
  | s -> t.rx_strategy <- s);
  let victims =
    Ctable.fold
      (fun _ vc acc ->
        let busy = Sar.in_progress vc.sar || not (Queue.is_empty vc.stash) in
        (* Stashed cells were striped under the old width; they cannot be
           replayed meaningfully. *)
        Metrics.add t.m.m_cells_dropped (Queue.length vc.stash);
        Queue.clear vc.stash;
        let marker = busy && vc.next_post > 0 in
        if busy then begin
          Metrics.incr t.m.m_restripe_aborts;
          recycle_buffers vc;
          reset_vc vc
        end;
        vc.sar <- Sar.create t.rx_strategy ~max_cells:t.cfg.max_pdu_cells;
        if marker then vc :: acc else acc)
      t.vcs []
  in
  if Trace.on Trace.Fault then
    Trace.emitf Trace.Fault ~now:(Engine.now t.eng)
      "restripe to %d live links (%d aborted reassemblies)" (List.length live)
      (List.length victims);
  (* Abort-marker enqueues suspend for dual-port accesses, and carrier
     callbacks may run from an engine callback: hand them to a process. *)
  if victims <> [] then
    Process.spawn t.eng ~name:"restripe-abort" (fun () ->
        List.iter
          (fun vc ->
            deliver_desc t vc vc.channel
              (Desc.v ~addr:0 ~len:0 ~vci:vc.vci ~eop:true ()))
          victims)

(* ------------------------------------------------------------------ *)

let attach t ~tx_link ~rx_link =
  t.tx_link <- Some tx_link;
  t.rx_link <- Some rx_link;
  t.recv_fn <- Some (fun () -> Atm_link.recv rx_link);
  t.try_recv_fn <- Some (fun () -> Atm_link.try_recv rx_link);
  Atm_link.on_link_change rx_link (fun () -> handle_rx_restripe t rx_link)

let start_fictitious_source t ~pdus ?rate_mbps () =
  if pdus = [] then invalid_arg "Board.start_fictitious_source: no PDUs";
  let rate =
    match rate_mbps with
    | Some r -> r
    | None ->
        (* Payload rate of the striped OC-12: 4 x 155.52 x 44/53. *)
        4.0 *. 155.52 *. 44.0 /. 53.0
  in
  let inter_cell_ns =
    int_of_float
      (Float.round (float_of_int (Cell.data_size * 8) /. rate *. 1000.0))
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (vci, pdu) -> Sar.segment ~vci ~nlinks:t.cfg.nlinks pdu)
         pdus)
  in
  let mbox = Mailbox.create t.eng ~capacity:t.cfg.rx_fifo_cells () in
  Process.spawn t.eng ~name:"fictitious-source" (fun () ->
      (* Pace against an absolute schedule so transient FIFO backpressure
         does not permanently lower the offered rate. *)
      let rec loop i next =
        let now = Engine.now t.eng in
        if next > now then Process.sleep t.eng (next - now);
        let cell = cells.(i) in
        (* Blocks when the FIFO is full: "as fast as the receiving host
           could absorb them". *)
        Mailbox.send mbox (Cell.seq cell mod t.cfg.nlinks, cell);
        loop ((i + 1) mod Array.length cells)
          (max next (Engine.now t.eng - (8 * inter_cell_ns)) + inter_cell_ns)
      in
      loop 0 (Engine.now t.eng));
  t.recv_fn <- Some (fun () -> Mailbox.recv mbox);
  t.try_recv_fn <- Some (fun () -> Mailbox.try_recv mbox)

let start t =
  if t.started then invalid_arg "Board.start: already started";
  t.started <- true;
  Process.spawn t.eng ~name:"tx-processor" (tx_processor t);
  Process.spawn t.eng ~name:"tx-dma" (tx_dma_engine t);
  Process.spawn t.eng ~name:"tx-sender" (tx_sender t);
  if t.recv_fn <> None then begin
    Process.spawn t.eng ~name:"rx-processor" (rx_processor t);
    Process.spawn t.eng ~name:"rx-dma" (rx_dma_engine t);
    if t.cfg.reassembly_timeout > 0 then
      Process.spawn t.eng ~name:"reassembly-sweeper" (reassembly_sweeper t)
  end;
  (* Wake the transmit processor whenever any channel gets new work; the
     kick counter is bumped synchronously inside the enqueue so a kick can
     never be lost while the processor is mid-scan. *)
  Array.iter
    (fun ch ->
      Desc_queue.set_on_enqueue ch.tx_q (fun () ->
          t.tx_kicks <- t.tx_kicks + 1;
          Signal.broadcast t.tx_work))
    t.channels

let debug_tx_state t =
  let chs =
    Array.to_list t.channels
    |> List.filter_map (fun ch ->
           let q = Desc_queue.count ch.tx_q in
           let st =
             match ch.txst with
             | None -> "-"
             | Some p -> Printf.sprintf "%d/%d" p.next p.ncells
           in
           if q = 0 && ch.txst = None then None
           else Some (Printf.sprintf "ch%d{q=%d ahead=%d pdu=%s}" ch.id q
                        ch.peek_ahead st))
  in
  Printf.sprintf "kicks=%d fetch_q=%d out=%d %s" t.tx_kicks
    (Mailbox.length t.tx_fetch_q)
    (Mailbox.length t.tx_out)
    (String.concat " " chs)

let tx_idle t =
  Array.for_all
    (fun ch -> ch.txst = None && Desc_queue.is_empty ch.tx_q)
    t.channels
  && Mailbox.is_empty t.tx_fetch_q && Mailbox.is_empty t.tx_out

(* ------------------------------------------------------------------ *)
(* Accounting views for Osiris_core.Invariants (meaningful at
   quiescence: buffers inside an in-flight DMA command are counted
   neither here nor host-side until the command posts). *)

let held_buffers t =
  Ctable.fold
    (fun _ vc acc ->
      let unposted =
        bufs_fold (fun b n -> if b.posted then n else n + 1) vc.bufs 0
      in
      acc + unposted + Queue.length vc.fbufs)
    t.vcs 0

let reassemblies_in_progress t =
  Ctable.fold
    (fun _ vc acc -> if Sar.in_progress vc.sar then acc + 1 else acc)
    t.vcs 0

let oldest_reassembly_age t =
  let now = Engine.now t.eng in
  Ctable.fold
    (fun _ vc acc ->
      if Sar.in_progress vc.sar then begin
        let age = now - vc.last_progress in
        match acc with Some a when a >= age -> acc | _ -> Some age
      end
      else acc)
    t.vcs None

