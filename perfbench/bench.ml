(* One run of one benchmark workload, in its own process.

   bench.exe --workload W --seed N [--trace] [--spans FILE]

   Sets the workload up, drives its offered load in simulated time, drains
   a grace period, audits the outcome (byte-exact payloads, conservation
   laws, quiescent host invariants, transport invariants, liveness, no
   failed op) and prints one JSON line. A failed audit prints the
   violations on stderr and exits 1 without metrics. perfbench/run.py
   repeats runs in fresh processes and aggregates them; see README.md.

   The benchmark drives the simulator only through its public interfaces
   and measures each layer from outside: spans around the calls this file
   makes (traced runs only), public stats read after the run, and
   standalone timings of each layer's hot function on inputs shaped like
   the run's. *)

open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Invariants = Osiris_core.Invariants
module Metrics = Osiris_obs.Metrics
module Board = Osiris_board.Board
module Desc = Osiris_board.Desc
module Desc_queue = Osiris_board.Desc_queue
module Switch = Osiris_switch.Switch
module Atm_link = Osiris_link.Atm_link
module Cell = Osiris_atm.Cell
module Sar = Osiris_atm.Sar
module Crc32 = Osiris_util.Crc32
module Checksum = Osiris_util.Checksum
module Rng = Osiris_util.Rng
module Data_cache = Osiris_cache.Data_cache
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Udp = Osiris_proto.Udp
module Cpu = Osiris_os.Cpu
module Irq = Osiris_os.Irq
module Phys_mem = Osiris_mem.Phys_mem
module Vspace = Osiris_mem.Vspace
module Ctable = Osiris_classify.Table
module Sender = Osiris_transport.Sender
module Wire = Osiris_transport.Wire
module Spray = Osiris_lb.Spray
module Reps = Osiris_lb.Reps
module Cdf = Osiris_traffic.Cdf
module Matrix = Osiris_traffic.Matrix
module Fault_soak = Osiris_experiments.Fault_soak
module Congestion = Osiris_experiments.Congestion
module Multipath = Osiris_experiments.Multipath

let wall () = Unix.gettimeofday ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A field of /proc/self/status in kB (0 when absent). *)
let status_kb key =
  let ic = open_in "/proc/self/status" in
  let k = String.length key in
  let rec go () =
    match input_line ic with
    | line when String.length line > k && String.sub line 0 k = key ->
        Scanf.sscanf (String.sub line k (String.length line - k)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let v = go () in
  close_in ic;
  v

let kb_to_mb kb = float_of_int kb *. 1024. /. 1e6
let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Growable arrays; a float array stays unboxed. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create zero = { a = Array.make 1024 zero; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) x in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let to_array v = Array.sub v.a 0 v.n
end

(* ------------------------------------------------------------------ *)
(* Spans. Traced runs record one span around every call this file makes
   into a layer, in memory; they are written out after the run. A span
   whose call let the engine dispatch events (a post that blocked in the
   driver) is marked blocked: its wall time includes other layers' work. *)

type kind =
  | Build  (** host and network constructors *)
  | Vc_open  (** [Network.open_vc] / [Spray.connect] *)
  | Alloc  (** [Msg.alloc] + blit of the payload *)
  | Post  (** [Driver.send] / [Udp.output] / [Spray.send] *)
  | Deliver  (** the delivery handler: read, verify, record *)
  | Slice  (** one [Engine.run] slice of the timed run *)
  | Fill  (** generating an op's payload pattern (benchmark work) *)
  | Gc_minor  (** minor collection, from [Runtime_events] *)
  | Gc_major  (** major slice, from [Runtime_events] *)

let kinds = [| Build; Vc_open; Alloc; Post; Deliver; Slice; Fill; Gc_minor; Gc_major |]

let kind_index = function
  | Build -> 0
  | Vc_open -> 1
  | Alloc -> 2
  | Post -> 3
  | Deliver -> 4
  | Slice -> 5
  | Fill -> 6
  | Gc_minor -> 7
  | Gc_major -> 8

let kind_name = function
  | Build -> "build"
  | Vc_open -> "vc_open"
  | Alloc -> "msg_alloc"
  | Post -> "post"
  | Deliver -> "deliver"
  | Slice -> "engine_run"
  | Fill -> "fill"
  | Gc_minor -> "gc_minor"
  | Gc_major -> "gc_major"

let tracing = ref false
let sp_kind = Vec.create 0
let sp_events = Vec.create 0
let sp_t0 = Vec.create 0.
let sp_dur = Vec.create 0.

let record k t0 t1 events =
  Vec.push sp_kind (kind_index k);
  Vec.push sp_events events;
  Vec.push sp_t0 t0;
  Vec.push sp_dur (t1 -. t0)

let span ?eng k f =
  if not !tracing then f ()
  else begin
    let ev () = match eng with Some e -> Engine.events_dispatched e | None -> 0 in
    let e0 = ev () in
    let t0 = wall () in
    let r = f () in
    let t1 = wall () in
    record k t0 t1 (ev () - e0);
    r
  end

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable blocked : int;
  mutable free_count : int;
  mutable free_s : float;  (** unblocked spans only *)
}

let aggregate () =
  let a =
    Array.map
      (fun _ -> { count = 0; total_s = 0.; blocked = 0; free_count = 0; free_s = 0. })
      kinds
  in
  for i = 0 to sp_kind.Vec.n - 1 do
    let g = a.(Vec.get sp_kind i) and d = Vec.get sp_dur i in
    g.count <- g.count + 1;
    g.total_s <- g.total_s +. d;
    if Vec.get sp_events i > 0 then g.blocked <- g.blocked + 1
    else begin
      g.free_count <- g.free_count + 1;
      g.free_s <- g.free_s +. d
    end
  done;
  fun k -> a.(kind_index k)

let write_spans path =
  let oc = open_out path in
  for i = 0 to sp_kind.Vec.n - 1 do
    let k = kinds.(Vec.get sp_kind i) in
    Printf.fprintf oc
      "{\"span\":\"%s\",\"t0_s\":%.9f,\"dur_ns\":%.0f,\"events\":%d%s}\n"
      (kind_name k) (Vec.get sp_t0 i)
      (Vec.get sp_dur i *. 1e9)
      (Vec.get sp_events i)
      (match k with
      | Gc_minor | Gc_major -> ",\"clock\":\"runtime_events\""
      | _ -> "")
  done;
  close_out oc

(* GC phases from the runtime's own event ring: recorded as spans while
   [gc_window] is set (the timed run), drained after every slice. *)
let gc_window = ref false
let gc_cursor = ref None

let gc_start () =
  Runtime_events.start ();
  let cur = Runtime_events.create_cursor None in
  let opened = [| 0L; 0L |] in
  let slot = function
    | Runtime_events.EV_MINOR -> 0
    | Runtime_events.EV_MAJOR_SLICE -> 1
    | _ -> -1
  in
  let runtime_begin _ ts phase =
    let i = slot phase in
    if i >= 0 then opened.(i) <- Runtime_events.Timestamp.to_int64 ts
  in
  let runtime_end _ ts phase =
    let i = slot phase in
    if i >= 0 && !gc_window && opened.(i) > 0L then begin
      let t1 = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e9 in
      record
        (if i = 0 then Gc_minor else Gc_major)
        (Int64.to_float opened.(i) /. 1e9)
        t1 0
    end
  in
  let cb = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () in
  gc_cursor := Some (cur, cb)

let gc_poll () =
  match !gc_cursor with
  | Some (cur, cb) -> ignore (Runtime_events.read_poll cur cb None)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ops: one PDU (pair, star) or one flow (fattree), each with a payload
   that is a pure function of its index (Fault_soak's pattern: the index
   rides in the first two bytes), verified byte for byte on delivery. *)

type ops = {
  mutable attempted : int;
  mutable intact : int;
  mutable corrupt : int;
  mutable bytes : int;  (** verified payload bytes delivered *)
  due : int Vec.t;  (** per op: simulated instant it was due to be sent *)
  len : int Vec.t;  (** per op: payload bytes *)
  lat : int Vec.t;  (** per intact op: due -> verified delivery, ns *)
  mutable last_delivery : Time.t;
  mutable max_late : Time.t;  (** open loop: worst post time minus due *)
}

let new_ops () =
  {
    attempted = 0;
    intact = 0;
    corrupt = 0;
    bytes = 0;
    due = Vec.create 0;
    len = Vec.create 0;
    lat = Vec.create 0;
    last_delivery = Time.zero;
    max_late = Time.zero;
  }

let new_op ops ~due ~len =
  let op = ops.attempted in
  ops.attempted <- op + 1;
  Vec.push ops.due due;
  Vec.push ops.len len;
  op

let fill_into buf ~op ~off0 =
  for i = 0 to Bytes.length buf - 1 do
    Bytes.unsafe_set buf i
      (Char.unsafe_chr (Fault_soak.pattern_byte ~msg:op ~off:(off0 + i)))
  done

let payload ?eng ~op ~len () =
  span ?eng Fill (fun () ->
      let b = Bytes.create len in
      fill_into b ~op ~off0:0;
      b)

let matches data ~op ~off0 =
  let ok = ref true and i = ref 0 in
  let n = Bytes.length data in
  while !ok && !i < n do
    if Char.code (Bytes.unsafe_get data !i)
       <> Fault_soak.pattern_byte ~msg:op ~off:(off0 + !i)
    then ok := false;
    incr i
  done;
  !ok

let settle ops ~op ~intact now =
  if intact then begin
    ops.intact <- ops.intact + 1;
    ops.bytes <- ops.bytes + Vec.get ops.len op;
    Vec.push ops.lat (now - Vec.get ops.due op);
    ops.last_delivery <- now
  end
  else ops.corrupt <- ops.corrupt + 1

let tag data =
  if Bytes.length data < 2 then -1
  else Bytes.get_uint8 data 0 lor (Bytes.get_uint8 data 1 lsl 8)

(* A whole-PDU delivery on a channel that preserves order: [pending]
   holds the ops posted on it, oldest first. Ops skipped over were lost. *)
let deliver_pdu ops pending data now =
  let t = tag data in
  while (not (Queue.is_empty pending)) && Queue.peek pending land 0xffff <> t do
    ignore (Queue.pop pending)
  done;
  if Queue.is_empty pending then ops.corrupt <- ops.corrupt + 1
  else begin
    let op = Queue.pop pending in
    settle ops ~op
      ~intact:(Bytes.length data = Vec.get ops.len op && matches data ~op ~off0:0)
      now
  end

(* ------------------------------------------------------------------ *)
(* Workloads *)

type world = {
  eng : Engine.t;
  hosts : Host.t array;
  links : Atm_link.t array;
  switches : Switch.t array;
  receivers : int list;  (** hosts whose receive path carries the load *)
  ops : ops;
  conns : Spray.t list ref;
  nvcs : int;  (** VCs a receiver demultiplexes (micro-timing shape) *)
  shape_pdu : int;  (** typical PDU payload bytes (micro-timing shape) *)
  shape_ports : int;  (** switch ports (micro-timing shape) *)
  udp_checksum : bool;
  window : Time.t;  (** offered-load window *)
  cap : Time.t;  (** hard end of window + drain grace *)
  load : Time.t -> unit;  (** start offering load until the given instant *)
  loaded : unit -> bool;  (** every op of the window has been posted *)
}

let topo_links (topo : Network.topology) =
  Array.concat
    [
      Array.map (fun e -> e.Network.to_fabric) topo.Network.endpoints;
      Array.map (fun e -> e.Network.from_fabric) topo.Network.endpoints;
      topo.Network.trunks;
    ]

let topo_hosts topo = Array.init (Network.nhosts topo) (Network.host topo)

(* pair_udp_bulk: the paper's host-to-host setup — two DEC 3000/600s back
   to back, double-cell receive DMA, UDP checksum on; one sender in a
   closed loop posts 15..16 KB datagrams as fast as the driver accepts
   them. *)
let pair_udp_bulk ~seed =
  let max_len = 16 * 1024 in
  let machine = Machine.dec3000_600 in
  let cfg =
    {
      Host.default_config with
      Host.board = { Board.default_config with Board.dma_mode = Board.Double_cell };
      udp_checksum = true;
      seed = 1000 + seed;
    }
  in
  let eng = Engine.create () in
  let net =
    span Build (fun () ->
        let a = Host.create eng machine ~addr:0x0a000001l cfg in
        let b =
          Host.create eng machine ~addr:0x0a000002l
            { cfg with Host.seed = cfg.Host.seed + 1 }
        in
        Network.connect eng ~seed:(2000 + seed) a b)
  in
  let a = net.Network.a and b = net.Network.b in
  let ops = new_ops () in
  let pending = Queue.create () in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ m ->
      span ~eng Deliver (fun () ->
          let data = Msg.read_all m in
          Msg.dispose m;
          deliver_pdu ops pending data (Engine.now eng)));
  let window = Time.ms 400 in
  let stopped = ref false in
  (* Datagram sizes are seeded, 15..16 KB in words, so each seed is its
     own input; the paper's 16 KB is the upper end. *)
  let rng = Rng.create ~seed:(8000 + seed) in
  let load until =
    Process.spawn eng ~name:"bench-udp-tx" (fun () ->
        while Engine.now eng < until do
          let len = max_len - (4 * Rng.int rng 257) in
          let op = new_op ops ~due:(Engine.now eng) ~len in
          Queue.push op pending;
          let src = payload ~eng ~op ~len () in
          let m =
            span ~eng Alloc (fun () ->
                let m = Msg.alloc a.Host.vs ~len () in
                Msg.blit_into m ~off:0 ~src;
                m)
          in
          (* Ownership passes down to the driver, which disposes the
             message once the board has fetched it (see README.md). *)
          span ~eng Post (fun () ->
              Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m)
        done;
        stopped := true)
  in
  {
    eng;
    hosts = [| a; b |];
    links = [| net.Network.a_to_b; net.Network.b_to_a |];
    switches = [||];
    receivers = [ 1 ];
    ops;
    conns = ref [];
    nvcs = 1;
    shape_pdu = max_len;
    shape_ports = 2;
    udp_checksum = true;
    window;
    cap = window + Time.ms 30;
    load;
    loaded = (fun () -> !stopped);
  }

(* star_small_pdu: nine DEC 3000/600s on one switch; eight senders each
   own 128 VCs to host 0 (1024 VCs at one receiver) and post, open loop,
   one 64..319-byte PDU per [gap] slot, round-robin over their VCs. *)
let star_small_pdu ~gap ~seed =
  let nsend = 8 and per = 128 in
  let cfg = { Host.default_config with Host.seed = 3000 + seed } in
  let eng, topo =
    span Build (fun () ->
        Network.star ~n:(nsend + 1) ~machine:Machine.dec3000_600 ~config:cfg
          ~seed:(4000 + seed) ())
  in
  let recv = Network.host topo 0 in
  let ops = new_ops () in
  let vcs =
    Array.init (nsend * per) (fun i ->
        span ~eng Vc_open (fun () ->
            Network.open_vc topo ~src:(1 + (i / per)) ~dst:0))
  in
  let pending = Array.init (nsend * per) (fun _ -> Queue.create ()) in
  Array.iteri
    (fun i vc ->
      Demux.bind recv.Host.demux ~vci:vc.Network.dst_vci ~name:"bench-sink"
        (fun ~vci:_ m ->
          span ~eng Deliver (fun () ->
              let data = Msg.read_all m in
              Msg.dispose m;
              deliver_pdu ops pending.(i) data (Engine.now eng))))
    vcs;
  let window = Time.ms 250 in
  let running = ref nsend in
  let load until =
    for s = 1 to nsend do
      let h = Network.host topo s in
      let rng = Rng.create ~seed:((seed * 7919) + s) in
      Process.spawn eng ~name:(Printf.sprintf "bench-star-tx%d" s) (fun () ->
          let t0 = Engine.now eng in
          let rec go i =
            (* one PDU per [gap] slot, at a seeded instant within it *)
            let due = t0 + (i * gap) + Rng.int rng gap in
            if due < until then begin
              let now = Engine.now eng in
              if due > now then Process.sleep eng (due - now)
              else ops.max_late <- max ops.max_late (now - due);
              let len = 64 + Rng.int rng 256 in
              let op = new_op ops ~due ~len in
              let vi = ((s - 1) * per) + (i mod per) in
              Queue.push op pending.(vi);
              let src = payload ~eng ~op ~len () in
              let m =
                span ~eng Alloc (fun () ->
                    let m = Msg.alloc h.Host.vs ~len () in
                    Msg.blit_into m ~off:0 ~src;
                    m)
              in
              span ~eng Post (fun () ->
                  Driver.send h.Host.driver ~vci:vcs.(vi).Network.src_vci m);
              go (i + 1)
            end
          in
          go 0;
          decr running)
    done
  in
  {
    eng;
    hosts = topo_hosts topo;
    links = topo_links topo;
    switches = topo.Network.switches;
    receivers = [ 0 ];
    ops;
    conns = ref [];
    nvcs = nsend * per;
    shape_pdu = 192;
    shape_ports = nsend + 1;
    udp_checksum = false;
    window;
    cap = window + Time.ms 20;
    load;
    loaded = (fun () -> !running = 0);
  }

(* fattree_transport: k=4 fat-tree, two hosts per edge switch (16 hosts,
   20 switches), the congestion sweep's 8 MB Alpha hosts, shallow marking
   switch queues with packet discard. Rounds of permutation flows with
   web-search sizes; each flow opens its REPS-sprayed reliable connection
   at its start instant, inside the timed run. *)
let fattree_transport ~seed =
  let rounds = 128 and round = Time.us 500 in
  let tcfg = Multipath.transport_config in
  let queue_cells = 128 in
  let switch =
    {
      Switch.default_config with
      Switch.queue_cells;
      mark_threshold = queue_cells / 3;
      epd_reserve =
        min queue_cells
          (Sar.cells_per_pdu (tcfg.Sender.seg_size + Wire.data_header_size));
    }
  in
  let host_cfg =
    {
      Host.default_config with
      Host.seed = 5000 + seed;
      board =
        {
          Host.default_config.Host.board with
          Board.reassembly_timeout = Time.ms 2;
          queue_size = 256;
        };
    }
  in
  let eng, topo =
    span Build (fun () ->
        Network.fat_tree ~k:4 ~hosts_per_edge:2
          ~machine:Congestion.small_machine ~config:host_cfg ~switch
          ~seed:(6000 + seed) ())
  in
  let nh = Network.nhosts topo in
  let rng = Rng.create ~seed:(7000 + seed) in
  let cdf =
    Cdf.scale Cdf.websearch ~factor:0.0015 ~min_bytes:512
      ~max_bytes:(24 * 1024)
  in
  let flows =
    Array.of_list
      (Matrix.by_start
         (List.concat
            (List.init rounds (fun r ->
                 List.map
                   (fun f -> { f with Matrix.f_start = f.Matrix.f_start + (r * round) })
                   (Matrix.permutation rng ~nhosts:nh ~cdf ~window:round)))))
  in
  (* Stratified sizes: one draw from each of [n] equal-probability bands
     of the same CDF, shuffled over the flows. Seeds then differ in
     placement and order, not in how much of the heavy tail they drew. *)
  let n = Array.length flows in
  let sizes =
    Array.init n (fun i ->
        let u = (float_of_int i +. Rng.float rng 1.) /. float_of_int n in
        max 1 (int_of_float (Cdf.quantile cdf u)))
  in
  Rng.shuffle rng sizes;
  let flows = Array.mapi (fun i f -> { f with Matrix.f_bytes = sizes.(i) }) flows in
  let ops = new_ops () in
  let conns = ref [] in
  let started = ref 0 in
  let start_flow (f : Matrix.flow) =
    let len = f.Matrix.f_bytes in
    let op = new_op ops ~due:(Engine.now eng) ~len in
    let got = ref 0 and bad = ref false in
    let deliver chunk =
      span ~eng Deliver (fun () ->
          if not (matches chunk ~op ~off0:!got) then bad := true;
          got := !got + Bytes.length chunk;
          if !got >= len then
            settle ops ~op ~intact:(!got = len && not !bad) (Engine.now eng))
    in
    let config =
      (* Desynchronize timer constants across flows, as the multipath
         figure does: a shared RTO ceiling phase-locks backed-off senders. *)
      {
        tcfg with
        Sender.rto_init = tcfg.Sender.rto_init + Time.us (137 * (op mod 16));
        rto_max = tcfg.Sender.rto_max + Time.us (613 * (op mod 16));
      }
    in
    let conn =
      span ~eng Vc_open (fun () ->
          Spray.connect topo ~name:(Printf.sprintf "f%d" op) ~config
            ~mode:Spray.Reps ~src:f.Matrix.f_src ~dst:f.Matrix.f_dst ~deliver ())
    in
    conns := conn :: !conns;
    let data = payload ~eng ~op ~len () in
    span ~eng Post (fun () -> Spray.send conn data);
    Spray.close conn;
    incr started
  in
  let window = rounds * round in
  let load _until =
    let t0 = Engine.now eng in
    Array.iter
      (fun f ->
        ignore
          (Engine.schedule_at eng ~time:(t0 + f.Matrix.f_start) (fun () ->
               start_flow f)))
      flows
  in
  {
    eng;
    hosts = topo_hosts topo;
    links = topo_links topo;
    switches = topo.Network.switches;
    receivers = List.init nh Fun.id;
    ops;
    conns;
    nvcs = 4 * Array.length flows / nh;
    shape_pdu = tcfg.Sender.seg_size + Wire.data_header_size;
    shape_ports = 4;
    udp_checksum = false;
    window;
    cap = window + Time.ms 400;
    load;
    loaded = (fun () -> !started = Array.length flows);
  }

let workloads =
  [
    ("pair_udp_bulk", fun ~seed -> pair_udp_bulk ~seed);
    ("star_small_pdu", fun ~seed -> star_small_pdu ~gap:(Time.us 200) ~seed);
    ("fattree_transport", fun ~seed -> fattree_transport ~seed);
    (* Must-fail: 4x the star's offered rate swamps the receiver; the
       audit rejects it, so a drop storm is never rated as speed. *)
    ("star_small_pdu_overload", fun ~seed -> star_small_pdu ~gap:(Time.us 50) ~seed);
  ]

(* ------------------------------------------------------------------ *)
(* The timed run: offered window, then drain until every posted op is
   delivered (or the cap), then a fixed settle so timers and receive
   pools quiesce. Slices are fixed in simulated time, so traced and
   untraced runs dispatch the identical event sequence. *)

let slice = Time.ms 1
let settle_time = Time.ms 5

let drive w =
  let eng = w.eng and ops = w.ops in
  let t0 = Engine.now eng in
  let until = t0 + w.window and cap = t0 + w.cap in
  w.load until;
  let complete () =
    Engine.now eng >= until && w.loaded ()
    && ops.intact + ops.corrupt >= ops.attempted
  in
  let run_to t =
    span ~eng Slice (fun () -> Engine.run ~until:t eng);
    if !tracing then gc_poll ()
  in
  while (not (complete ())) && Engine.now eng < cap do
    run_to (min cap (Engine.now eng + slice))
  done;
  let stop = Engine.now eng + settle_time in
  while Engine.now eng < stop do
    run_to (min stop (Engine.now eng + slice))
  done;
  t0

(* ------------------------------------------------------------------ *)
(* Audit *)

let audit w =
  let v = ref [] in
  let add l = v := !v @ l in
  Array.iteri
    (fun i sw ->
      let st = Switch.stats sw in
      add
        (Invariants.balance
           ~what:(Printf.sprintf "switch %d cell conservation" i)
           ~total:st.Switch.cells_in ~parts:(Switch.conservation sw));
      add
        (Invariants.balance
           ~what:(Printf.sprintf "switch %d mark conservation" i)
           ~total:st.Switch.marked ~parts:(Switch.mark_conservation sw)))
    w.switches;
  Array.iteri
    (fun i l ->
      add
        (Invariants.balance
           ~what:(Printf.sprintf "link %d cell disposition" i)
           ~total:(Atm_link.offered l) ~parts:(Atm_link.conservation l)))
    w.links;
  Array.iteri
    (fun i (h : Host.t) ->
      add
        (List.map
           (Printf.sprintf "host %d: %s" i)
           (Invariants.check ~quiescent:true ~board:h.Host.board
              ~driver:h.Host.driver ())))
    w.hosts;
  List.iter
    (fun c ->
      add (Spray.invariants c);
      match Spray.state c with
      | Sender.Finished -> ()
      | Sender.Active -> add [ "transport: a flow is still active after the drain grace" ]
      | Sender.Failed why -> add [ "transport: a flow failed: " ^ why ])
    !(w.conns);
  let o = w.ops in
  if o.intact = 0 then add [ "liveness: no op was delivered intact" ];
  if o.corrupt > 0 then
    add [ Printf.sprintf "%d ops delivered with a wrong payload" o.corrupt ];
  if o.intact < o.attempted then
    add
      [
        Printf.sprintf "%d of %d ops not delivered intact by the end of the drain grace"
          (o.attempted - o.intact) o.attempted;
      ];
  !v

(* ------------------------------------------------------------------ *)
(* Per-layer counts, read from public stats after the run. They repeat
   exactly for a seed and make up the fingerprint. *)

let sum_hosts w (f : Host.t -> int) = Array.fold_left (fun a h -> a + f h) 0 w.hosts
let sum_links w f = Array.fold_left (fun a l -> a + f (Atm_link.stats l)) 0 w.links
let sum_switches w f = Array.fold_left (fun a s -> a + f s) 0 w.switches
let bstat (h : Host.t) = Board.stats h.Host.board

let queues (h : Host.t) =
  let ch = Board.kernel_channel h.Host.board in
  [ Board.tx_queue ch; Board.free_queue ch; Board.rx_queue ch ]

let sum_queues w f =
  sum_hosts w (fun h -> List.fold_left (fun a q -> a + f q) 0 (queues h))

let table_sums stats =
  List.fold_left
    (fun (l, p, p99) (s : Ctable.probe_stats) ->
      (l + s.Ctable.lookups, p + s.Ctable.probes, max p99 s.Ctable.p99_probe))
    (0, 0, 0) stats

type snapshot = {
  events : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  busy : Time.t list;  (** receivers' CPU busy time *)
  irqs : int list;  (** receivers' interrupt counts *)
}

let snap w =
  let g = Gc.quick_stat () in
  {
    events = Engine.events_dispatched w.eng;
    minor_words = Gc.minor_words ();
    minor_collections = g.Gc.minor_collections;
    major_collections = g.Gc.major_collections;
    busy =
      List.map (fun i -> (Cpu.busy_stats w.hosts.(i).Host.cpu).Resource.busy_time) w.receivers;
    irqs = List.map (fun i -> Irq.count w.hosts.(i).Host.irq) w.receivers;
  }

let layer_counts w ~before ~after ~sim_ns =
  let f = float_of_int in
  let ops = w.ops in
  let kb = f ops.bytes /. 1000. in
  let events = after.events - before.events in
  let cells_sent = sum_hosts w (fun h -> (bstat h).Board.cells_sent) in
  let cells_recv = sum_hosts w (fun h -> (bstat h).Board.cells_received) in
  let cache g = sum_hosts w (fun h -> g (Data_cache.stats h.Host.cache)) in
  let udp g = sum_hosts w (fun h -> g (Udp.stats h.Host.udp)) in
  let rx_pdus =
    List.fold_left (fun a i -> a + (bstat w.hosts.(i)).Board.pdus_received) 0 w.receivers
  in
  let busy =
    List.fold_left2 (fun a x y -> a + (y - x)) 0 before.busy after.busy
  in
  let irqs = List.fold_left2 (fun a x y -> a + (y - x)) 0 before.irqs after.irqs in
  let bl, bp, bp99 =
    table_sums (Array.to_list (Array.map (fun (h : Host.t) -> Board.demux_stats h.Host.board) w.hosts))
  in
  let sl, sp, sp99 =
    table_sums (Array.to_list (Array.map Switch.route_stats w.switches))
  in
  let senders = List.map (fun c -> Sender.stats (Spray.sender c)) !(w.conns) in
  let snd g = List.fold_left (fun a s -> a + g s) 0 senders in
  let reps = List.filter_map (fun c -> Option.map Reps.stats (Spray.reps c)) !(w.conns) in
  let rep g = List.fold_left (fun a s -> a + g s) 0 reps in
  let udp_bytes =
    if w.udp_checksum then
      (* UDP checksums cover header + payload of every datagram sent and
         of every one delivered *)
      Array.fold_left ( + ) 0 (Vec.to_array ops.len)
      + ops.bytes
      + (Udp.header_size * (ops.attempted + ops.intact))
    else 0
  in
  let sw_in = sum_switches w (fun s -> (Switch.stats s).Switch.cells_in) in
  [
    ("sim.events", f events);
    ("sim.events_per_kb", ratio (f events) kb);
    ("atm.cells", f cells_sent);
    ("util.bytes_crc", f ((cells_sent + cells_recv) * Cell.data_size));
    ("util.bytes_checksummed", f udp_bytes);
    ("cache.hits", f (cache (fun s -> s.Data_cache.hits)));
    ("cache.misses", f (cache (fun s -> s.Data_cache.misses)));
    ("cache.stale_reads", f (cache (fun s -> s.Data_cache.stale_reads)));
    ("proto.udp_delivered", f (udp (fun s -> s.Udp.delivered)));
    ("proto.udp_checksum_errors", f (udp (fun s -> s.Udp.checksum_errors)));
    ("proto.udp_stale_recoveries", f (udp (fun s -> s.Udp.stale_recoveries)));
    ("board.tx_dma", f (sum_hosts w (fun h -> (bstat h).Board.dma_tx_transactions)));
    ("board.rx_dma", f (sum_hosts w (fun h -> (bstat h).Board.dma_rx_transactions)));
    ("board.rx_reassembly_errors", f (sum_hosts w (fun h -> (bstat h).Board.reassembly_errors)));
    ("board.rx_no_buffer_drops", f (sum_hosts w (fun h -> (bstat h).Board.pdus_dropped_no_buffer)));
    ("board.pio_writes", f (sum_queues w (fun q -> (Desc_queue.access_stats q).Desc_queue.host_writes)));
    ( "os.rx_cpu_busy_frac",
      ratio (f busy) (f sim_ns *. f (List.length w.receivers)) );
    ("os.interrupts_per_pdu", iratio irqs rx_pdus);
    ("core.rx_crc_drops", f (sum_hosts w (fun h -> (Driver.stats h.Host.driver).Driver.crc_drops)));
    ("mem.host_bytes", f (sum_hosts w (fun h -> Phys_mem.size h.Host.mem)));
    ("link.cells_sent", f (sum_links w (fun s -> s.Atm_link.cells_sent)));
    ("link.cells_delivered", f (sum_links w (fun s -> s.Atm_link.cells_delivered)));
    ( "link.dropped",
      f
        (sum_links w (fun s ->
             s.Atm_link.dropped_fifo + s.Atm_link.dropped_net + s.Atm_link.dropped_link_down)) );
    ("link.reordered", f (sum_links w (fun s -> s.Atm_link.reordered)));
    ("switch.cells_in", f sw_in);
    ( "switch.forwarded_ratio",
      iratio (sum_switches w (fun s -> (Switch.stats s).Switch.forwarded)) sw_in );
    ("switch.dropped_overflow", f (sum_switches w (fun s -> (Switch.stats s).Switch.dropped_overflow)));
    ("switch.dropped_epd", f (sum_switches w (fun s -> (Switch.stats s).Switch.dropped_epd)));
    ("switch.marked", f (sum_switches w (fun s -> (Switch.stats s).Switch.marked)));
    ("classify.board_probes_avg", iratio bp bl);
    ("classify.switch_probes_avg", iratio sp sl);
    ("classify.probes_p99", f (max bp99 sp99));
    ( "transport.retransmit_ratio",
      iratio (snd (fun s -> s.Sender.retransmit_bytes)) (snd (fun s -> s.Sender.offered_bytes)) );
    ("transport.timeouts", f (snd (fun s -> s.Sender.timeouts)));
    ("transport.fast_retransmits", f (snd (fun s -> s.Sender.fast_retransmits)));
    ("lb.recycled_pick_ratio", iratio (rep (fun s -> s.Reps.recycled)) (rep (fun s -> s.Reps.picks)));
    (* op counts for bench.explained_share *)
    ("atm.cells_received", f cells_recv);
    ( "board.queue_ops",
      f (sum_queues w (fun q -> Desc_queue.total_enqueued q + Desc_queue.total_dequeued q)) );
    ("classify.lookups", f (bl + sl));
    ("transport.acks", f (snd (fun s -> s.Sender.acks_received)));
    ("lb.picks", f (rep (fun s -> s.Reps.picks)));
  ]

(* ------------------------------------------------------------------ *)
(* Standalone timings of each layer's public hot function, on inputs
   shaped like the run's: its PDU size, VC count, port count and queue
   depth. Median of five batches, in ns per unit. *)

let per_call ?(budget = 0.05) f =
  f ();
  let n = ref 1 in
  let batch () =
    let t0 = wall () in
    for _ = 1 to !n do
      f ()
    done;
    wall () -. t0
  in
  while batch () < budget /. 5. do
    n := !n * 2
  done;
  let xs = Array.init 5 (fun _ -> batch () /. float_of_int !n *. 1e9) in
  Array.sort compare xs;
  xs.(2)

type micro = {
  segment_ns_per_cell : float;
  push_ns_per_cell : float;
  words_per_cell : float;
  crc_ns_per_byte : float;
  checksum_ns_per_byte : float;
  queue_ns_per_op : float;
  msg_alloc_ns : float;
  read_all_ns_per_kb : float;
  switch_ns_per_cell : float;
  find_ns : float;
  on_ack_ns : float;
  pick_ns : float;
  event_ns : float;  (** bare engine schedule + dispatch *)
}

let micro w =
  let len = w.shape_pdu in
  let pdu = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let cells = Sar.segment ~vci:40 ~nlinks:4 pdu in
  let ncells = float_of_int (List.length cells) in
  let segment_ns_per_cell =
    per_call (fun () -> ignore (Sys.opaque_identity (Sar.segment ~vci:40 ~nlinks:4 pdu)))
    /. ncells
  in
  let words_per_cell =
    let m0 = Gc.minor_words () in
    for _ = 1 to 10 do
      ignore (Sys.opaque_identity (Sar.segment ~vci:40 ~nlinks:4 pdu))
    done;
    (Gc.minor_words () -. m0) /. (10. *. ncells)
  in
  let sar = Sar.create (Sar.Per_link 4) ~max_cells:8192 in
  let push_ns_per_cell =
    per_call (fun () ->
        List.iteri
          (fun k c ->
            match Sar.push sar ~link:(k mod 4) c with
            | Sar.Completed _ -> Sar.reset sar
            | Sar.Placed _ -> ()
            | Sar.Rejected r -> failwith ("micro sar push: " ^ r))
          cells)
    /. ncells
  in
  let framed = Sar.frame pdu in
  let crc_ns_per_byte =
    per_call (fun () ->
        ignore (Sys.opaque_identity (Crc32.compute framed ~off:0 ~len:(Bytes.length framed))))
    /. float_of_int (Bytes.length framed)
  in
  let checksum_ns_per_byte =
    per_call (fun () -> ignore (Sys.opaque_identity (Checksum.compute pdu ~off:0 ~len)))
    /. float_of_int len
  in
  let eng = Engine.create () in
  let qsize = (Board.config w.hosts.(0).Host.board).Board.queue_size in
  let q =
    Desc_queue.create eng ~metrics_prefix:"perfbench.q" ~size:qsize
      ~direction:Desc_queue.Host_to_board ~locking:Desc_queue.Lock_free
      ~hooks:Desc_queue.free_hooks ()
  in
  let d = Desc.v ~addr:0x10000 ~len ~vci:40 ~eop:true () in
  for _ = 1 to qsize / 2 do
    ignore (Desc_queue.host_enqueue q d)
  done;
  let queue_ns_per_op =
    per_call (fun () ->
        ignore (Desc_queue.host_enqueue q d);
        ignore (Sys.opaque_identity (Desc_queue.board_dequeue q)))
    /. 2.
  in
  let mem = Phys_mem.create ~size:(8 * 1024 * 1024) ~page_size:8192 () in
  let vs = Vspace.create mem in
  let msg_alloc_ns =
    per_call (fun () ->
        let m = Msg.alloc vs ~len () in
        Msg.blit_into m ~off:0 ~src:pdu;
        Msg.dispose m)
  in
  let m = Msg.alloc vs ~len () in
  Msg.blit_into m ~off:0 ~src:pdu;
  let read_all_ns_per_kb =
    per_call (fun () -> ignore (Sys.opaque_identity (Msg.read_all m)))
    /. (float_of_int len /. 1000.)
  in
  let nports = max 2 w.shape_ports in
  let sw =
    Switch.create eng ~name:"perfbench"
      { Switch.default_config with Switch.nports; queue_cells = 4096 }
  in
  let nv = max 1 w.nvcs in
  for v = 0 to nv - 1 do
    Switch.add_route sw ~in_port:0 ~in_vci:(32 + v) ~out_port:1 ~out_vci:(32 + v)
  done;
  let data = Bytes.make Cell.data_size 'c' in
  let scells =
    Array.init 64 (fun i ->
        Cell.make ~vci:(32 + (i mod nv)) ~seq:0 ~eom:true ~last_of_pdu:true data)
  in
  let switch_ns_per_cell =
    per_call (fun () ->
        Array.iter (fun c -> Switch.ingress_cell sw ~port:0 c) scells;
        for _ = 1 to 64 do
          ignore (Sys.opaque_identity (Switch.drain_one sw ~port:1))
        done)
    /. 64.
  in
  let tbl = Ctable.create ~dummy:0 nv in
  let keys = Array.init nv (fun v -> (32 + v) lor (3 lsl 16)) in
  Array.iteri (fun i k -> Ctable.add tbl k i) keys;
  let find_ns =
    per_call (fun () ->
        Array.iter (fun k -> ignore (Sys.opaque_identity (Ctable.find_slot tbl k))) keys)
    /. float_of_int nv
  in
  let tcfg = Multipath.transport_config in
  let nseg = 4096 in
  let s = Sender.create eng ~config:tcfg ~tx:(fun ~seq:_ ~retransmit:_ _ -> ()) () in
  Sender.offer s (Bytes.make (nseg * tcfg.Sender.seg_size) 'd');
  let t0 = wall () in
  for i = 1 to nseg do
    Sender.on_ack s ~ack:i ~sack:0 ~ece:false
  done;
  let on_ack_ns = (wall () -. t0) /. float_of_int nseg *. 1e9 in
  let r = Reps.create ~npaths:4 () in
  let pick_ns =
    per_call (fun () ->
        let p = Reps.pick r in
        Reps.on_ack r ~path:p ~ece:false)
  in
  let e = Engine.create () in
  let nop () = () in
  let event_ns =
    per_call (fun () ->
        for i = 1 to 256 do
          ignore (Engine.schedule e ~delay:(i land 63) nop)
        done;
        Engine.run e)
    /. 256.
  in
  {
    segment_ns_per_cell;
    push_ns_per_cell;
    words_per_cell;
    crc_ns_per_byte;
    checksum_ns_per_byte;
    queue_ns_per_op;
    msg_alloc_ns;
    read_all_ns_per_kb;
    switch_ns_per_cell;
    find_ns;
    on_ack_ns;
    pick_ns;
    event_ns;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let json_num x =
  if not (Float.is_finite x) then invalid_arg "json_num: not a finite number"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_num v)) kvs)
  ^ "}"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N [--trace] [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and spans_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse r
    | "--trace" :: r -> tracing := true; parse r
    | "--spans" :: v :: r -> spans_file := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let make =
    match List.assoc_opt !workload workloads with
    | Some m when !seed >= 0 -> m
    | _ -> usage ()
  in
  if !tracing then gc_start ();
  (* Set-up: build the topology, open VCs, bind sinks. *)
  let s0 = wall () in
  let w = make ~seed:!seed in
  let setup_s = wall () -. s0 in
  Array.iter (fun (h : Host.t) -> Board.reset_demux_stats h.Host.board) w.hosts;
  Array.iter Switch.reset_route_stats w.switches;
  (* The timed run. *)
  if !tracing then begin
    gc_poll ();
    gc_window := true
  end;
  let before = snap w in
  let c0 = cpu () and w0 = wall () in
  let t0 = drive w in
  let run_cpu_s = cpu () -. c0 and run_wall_s = wall () -. w0 in
  let after = snap w in
  if !tracing then begin
    gc_poll ();
    gc_window := false
  end;
  let violations = audit w in
  if violations <> [] then begin
    Printf.eprintf "perfbench %s seed %d: correctness gate failed (%d violations)\n"
      !workload !seed (List.length violations);
    List.iter (fun v -> prerr_endline ("  " ^ v)) violations;
    exit 1
  end;
  let ops = w.ops in
  let sim_ns = max 1 (ops.last_delivery - t0) in
  let counts = layer_counts w ~before ~after ~sim_ns in
  (* The registry is per process, so it holds this run's counters only. *)
  let registry =
    List.map
      (fun (k, v) ->
        match v with
        | Metrics.V_int n -> Printf.sprintf "%s=%d" k n
        | Metrics.V_float x -> Printf.sprintf "%s=%.17g" k x
        | Metrics.V_dist d -> Printf.sprintf "%s=%d/%.17g" k d.Metrics.d_n d.Metrics.d_sum
        | Metrics.V_hist h -> Printf.sprintf "%s=%d" k h.Metrics.h_n)
      (Metrics.snapshot ())
  in
  let fingerprint =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            ([
               Printf.sprintf "clock=%d" (Engine.now w.eng);
               Printf.sprintf "events=%d" (Engine.events_dispatched w.eng);
               Printf.sprintf "delivered_bytes=%d" ops.bytes;
               Printf.sprintf "ops=%d/%d" ops.intact ops.attempted;
             ]
            @ List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) counts
            @ registry)))
  in
  let lat = Vec.to_array ops.lat in
  Array.sort compare lat;
  let f = float_of_int in
  let mb = f ops.bytes /. 1e6 in
  let minor_words = after.minor_words -. before.minor_words in
  let e2e =
    [
      ("goodput_mb_per_cpu_s", ratio mb run_cpu_s);
      ("run_wall_s", run_wall_s);
      ("setup_s", setup_s);
      ("peak_rss_mb", kb_to_mb (status_kb "VmHWM:"));
      ("alloc_words_per_kb", ratio minor_words (f ops.bytes /. 1000.));
      ("sim_goodput_mbps", f ops.bytes *. 8. *. 1e3 /. f sim_ns);
      ("sim_latency_p50_us", f (percentile lat 0.50) /. 1e3);
      ("sim_latency_p99_us", f (percentile lat 0.99) /. 1e3);
      ("failed_op_ratio", iratio (ops.attempted - ops.intact) ops.attempted);
    ]
  in
  let events = f (after.events - before.events) in
  (* Process-level figures: run.py takes these from the untraced run. *)
  let process =
    [
      ("sim.events_per_cpu_s", ratio events run_cpu_s);
      ("gc.minor_words", minor_words);
      ("gc.minor_collections", f (after.minor_collections - before.minor_collections));
      ("gc.major_collections", f (after.major_collections - before.major_collections));
    ]
  in
  let timings =
    if not !tracing then []
    else begin
      let a = aggregate () in
      (* memory first: the standalone timings allocate *)
      let live_words =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let live_mb = f live_words *. f (Sys.word_size / 8) /. 1e6 in
      let rss_mb = kb_to_mb (status_kb "VmHWM:") in
      let m = micro w in
      let get k = List.assoc k counts in
      let verify_s = (a Deliver).total_s in
      let datapath_s = (a Slice).total_s -. verify_s -. (a Fill).total_s in
      let posts = a Post in
      let explained_ns =
        (m.segment_ns_per_cell *. get "atm.cells")
        +. (m.push_ns_per_cell *. get "atm.cells_received")
        +. (m.crc_ns_per_byte *. get "util.bytes_crc")
        +. (m.checksum_ns_per_byte *. get "util.bytes_checksummed")
        +. (m.queue_ns_per_op *. get "board.queue_ops")
        +. (m.switch_ns_per_cell *. get "switch.cells_in")
        +. (m.find_ns *. get "classify.lookups")
        +. (m.on_ack_ns *. get "transport.acks")
        +. (m.pick_ns *. get "lb.picks")
        +. (m.event_ns *. events)
        +. ((a Alloc).total_s *. 1e9)
      in
      [
        ("sim.ns_per_event", ratio (datapath_s *. 1e9) events);
        ("atm.sar_segment_ns_per_cell", m.segment_ns_per_cell);
        ("atm.sar_push_ns_per_cell", m.push_ns_per_cell);
        ("atm.words_per_cell", m.words_per_cell);
        ("util.crc32_ns_per_byte", m.crc_ns_per_byte);
        ("util.checksum_ns_per_byte", m.checksum_ns_per_byte);
        ("board.desc_queue_ns_per_op", m.queue_ns_per_op);
        ("core.build_s", (a Build).total_s);
        ("core.vc_open_us", ratio ((a Vc_open).total_s *. 1e6) (f (a Vc_open).count));
        ("core.tx_post_ns", ratio (posts.free_s *. 1e9) (f posts.free_count));
        ("core.tx_blocked_ratio", iratio posts.blocked posts.count);
        ("mem.live_heap_mb", live_mb);
        ("mem.rss_outside_heap_mb", rss_mb -. live_mb);
        ("xkernel.msg_alloc_ns", m.msg_alloc_ns);
        ("xkernel.read_all_ns_per_kb", m.read_all_ns_per_kb);
        ("switch.ingress_drain_ns_per_cell", m.switch_ns_per_cell);
        ("classify.find_ns", m.find_ns);
        ("transport.on_ack_ns", m.on_ack_ns);
        ("lb.pick_ns", m.pick_ns);
        ("gc.minor_s", (a Gc_minor).total_s);
        ("gc.major_s", (a Gc_major).total_s);
        ("bench.verify_s", verify_s);
        ("bench.explained_share", ratio (explained_ns /. 1e9) datapath_s);
      ]
    end
  in
  if !tracing && !spans_file <> "" then write_spans !spans_file;
  Printf.printf
    "{\"workload\":%S,\"seed\":%d,\"attempted\":%d,\"failed\":%d,\"fingerprint\":%S,\"latency_samples\":%d,\"max_late_us\":%s,\"e2e\":%s,\"layer\":%s}\n"
    !workload !seed ops.attempted
    (ops.attempted - ops.intact)
    fingerprint (Array.length lat)
    (json_num (f ops.max_late /. 1e3))
    (json_obj e2e)
    (json_obj (counts @ process @ timings))
