(* Engine macro-benchmark: how fast does the event core chew through a
   realistic million-event workload?

   Not a paper figure — a self-measurement, in the spirit of the paper's
   own obsession with keeping the per-cell software path cheap enough to
   track the hardware. Every ROADMAP scale item (hundreds of hosts,
   incast sweeps into the hundreds of senders) is bounded by raw engine
   throughput, so the trajectory must be visible in BENCH.json.

   The workload is the full datapath, not a microloop: several senders
   stream PDUs through the cell switch to one receiver over a star
   topology — segmentation, link striping, switch contention, DMA,
   reassembly, demux — and the engine dispatches a fixed budget of live
   events. The rate only counts if the workload delivers without loss
   and the engine retains nothing per dispatched event; the dispatch
   order itself is pinned by the test suite's differential checks. *)

open Osiris_sim
module Host = Osiris_core.Host
module Network = Osiris_core.Network
module Machine = Osiris_core.Machine
module Driver = Osiris_core.Driver
module Cell = Osiris_atm.Cell
module Switch = Osiris_switch.Switch
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux

type outcome = {
  events : int;  (** live events dispatched in the timed segment *)
  wall_s : float;
  cpu_s : float;  (** user CPU time; the rates below use this *)
  events_per_s : float;
  cells_forwarded : int;
  cells_per_s : float;
  bytes_per_s : float;  (** forwarded cell payload bytes per wall second *)
  delivered_pdus : int;
  delivered_bytes : int;
  final_clock : Time.t;
  cells_in : int;
  dropped : int;
  live_words_growth : int;
      (** major-heap words retained across all timed segments *)
  minor_words_per_event : float;
      (** minor-heap words allocated per dispatched event, best segment:
          the R5 hot-path allocation lint's rent, in numbers *)
}

(* Retained major-heap words after a full collection: the timed segment
   must not grow this by more than in-flight state — a scheduler that
   pins dead handles (as the first heap did) shows up here. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Generous ceiling for [live_words_growth]: in-flight PDUs, queues and
   warmup-to-steady-state drift are a few hundred kwords; an O(events)
   leak at 1M events is tens of Mwords. *)
let growth_ceiling = 4_000_000

let warmup_events = 20_000

(* The workload, built and warmed up, ready for timed segments. *)
type setup = {
  s_eng : Engine.t;
  s_stats : Switch.stats;
  s_delivered : int ref;
  s_delivered_bytes : int ref;
}

let prepare ~senders ~msg_size ~seed () =
  let cfg = { Host.default_config with Host.seed = 9000 + seed } in
  let switch = { Switch.default_config with Switch.queue_cells = 128 } in
  let eng, topo =
    Network.star ~n:(senders + 1) ~config:cfg ~switch
      ~seed:(200 + seed) ()
  in
  let recv = Network.host topo 0 in
  let vcs =
    Array.init senders (fun i -> Network.open_vc topo ~src:(i + 1) ~dst:0)
  in
  let delivered = ref 0 and delivered_bytes = ref 0 in
  Array.iter
    (fun vc ->
      Demux.bind recv.Host.demux ~vci:vc.Network.dst_vci ~name:"speed-sink"
        (fun ~vci:_ m ->
          incr delivered;
          delivered_bytes := !delivered_bytes + Msg.length m;
          Msg.dispose m))
    vcs;
  (* Senders stream forever (the event budget ends the run): one PDU
     every [gap], each sender a [gap / senders] phase after the last so
     the 43-cell bursts reach the receiver one at a time. 4 x 43 cells
     per 400 us is ~180 Mb/s into a 620 Mb/s port: queues reach a steady
     state with no drops. Bursts synchronised to within microseconds, or
     a 200 us gap, overrun the receiving 5000/200 and turn the run into
     a drop storm that delivers nothing; [delivery_check] fails it. *)
  let gap = Time.us 400 in
  Array.iteri
    (fun i vc ->
      let sender = Network.host topo (i + 1) in
      Process.spawn eng
        ~name:(Printf.sprintf "speed-tx%d" i)
        (fun () ->
          Process.sleep eng (gap * i / senders);
          let payload = Fault_soak.fill_pattern ~msg:i ~len:msg_size in
          let rec loop () =
            let m = Msg.alloc sender.Host.vs ~len:msg_size () in
            Msg.blit_into m ~off:0 ~src:payload;
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng gap;
            loop ()
          in
          loop ()))
    vcs;
  (* Let the pipeline fill before measuring. *)
  Engine.run ~max_events:warmup_events eng;
  {
    s_eng = eng;
    s_stats = Switch.stats topo.Network.switches.(0);
    s_delivered = delivered;
    s_delivered_bytes = delivered_bytes;
  }

(* One timed segment of [events] live events: (user CPU seconds, cells
   forwarded). Rate over user CPU time, not wall time: the system time of
   a run is the kernel faulting in and zeroing pages of host memory, a
   memory set-up cost rather than event dispatch. *)
let segment s ~events =
  let fwd0 = s.s_stats.Switch.forwarded in
  let mw0 = Gc.minor_words () in
  let t0_cpu = (Unix.times ()).Unix.tms_utime in
  Engine.run ~max_events:events s.s_eng;
  let cpu_s = (Unix.times ()).Unix.tms_utime -. t0_cpu in
  (cpu_s, s.s_stats.Switch.forwarded - fwd0, Gc.minor_words () -. mw0)

let outcome_of s ~events ~wall_s ~best_cpu ~best_fwd ~best_mw
    ~live_words_growth =
  let cpu = if best_cpu > 0. then best_cpu else 1e-9 in
  let st = s.s_stats in
  {
    events;
    wall_s;
    cpu_s = best_cpu;
    events_per_s = float_of_int events /. cpu;
    cells_forwarded = st.Switch.forwarded;
    cells_per_s = float_of_int best_fwd /. cpu;
    bytes_per_s = float_of_int (best_fwd * Cell.data_size) /. cpu;
    delivered_pdus = !(s.s_delivered);
    delivered_bytes = !(s.s_delivered_bytes);
    final_clock = Engine.now s.s_eng;
    cells_in = st.Switch.cells_in;
    dropped = st.Switch.dropped_overflow + st.Switch.dropped_no_route;
    live_words_growth;
    minor_words_per_event = best_mw /. float_of_int events;
  }

(* A rate counted over traffic that never arrives measures a drop storm,
   not the datapath: the workload must deliver, and without loss. *)
let delivery_check o =
  (if o.delivered_pdus = 0 then
     [ "engine_speed: no PDU was delivered intact" ]
   else [])
  @
  if o.dropped > 0 then
    [
      Printf.sprintf "engine_speed: the switch dropped %d cells" o.dropped;
    ]
  else []

let leak_check o =
  if o.live_words_growth > growth_ceiling then
    [
      Printf.sprintf
        "engine_speed: %d live words retained across the %d-event timed \
         segments (ceiling %d) — a scheduler is pinning dead events"
        o.live_words_growth o.events growth_ceiling;
    ]
  else []

let run ?(events = 1_000_000) ?(senders = 4) ?(msg_size = 2048) ?(seed = 3)
    () =
  let s = prepare ~senders ~msg_size ~seed () in
  let base_words = live_words () in
  (* Rated on the best of [reps] segments — major-GC slices land
     unevenly across segments, and the best one is the least polluted
     look at the scheduler itself. Wall time (all segments) is still
     reported. *)
  let reps = 3 in
  let best_cpu = ref infinity and best_fwd = ref 0 in
  let best_mw = ref infinity and wall = ref 0. in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let cpu_s, fwd, mw = segment s ~events in
    wall := !wall +. (Unix.gettimeofday () -. t0);
    if cpu_s < !best_cpu then begin
      best_cpu := cpu_s;
      best_fwd := fwd
    end;
    (* Best segment independently of the CPU best: allocation is exactly
       reproducible per segment, timing is not. *)
    if mw < !best_mw then best_mw := mw
  done;
  let o =
    outcome_of s ~events ~wall_s:!wall ~best_cpu:!best_cpu
      ~best_fwd:!best_fwd ~best_mw:!best_mw
      ~live_words_growth:(live_words () - base_words)
  in
  (o, delivery_check o @ leak_check o)

let sweep_events = [ 250_000; 1_000_000 ]

let figure () =
  let outs = List.map (fun n -> run ~events:n ()) sweep_events in
  List.iter
    (fun (_, violations) ->
      if violations <> [] then
        failwith
          ("engine_speed: invariant violation: "
          ^ String.concat "; " violations))
    outs;
  let pt f = List.map (fun (o, _) -> (o.events / 1000, f o)) outs in
  {
    Report.title =
      "engine_speed: live events dispatched per CPU second, 4-sender \
       star-topology datapath workload, one (time, seq) event queue";
    xlabel = "live events dispatched (thousands)";
    ylabel = "events/s, cells/s, bytes/s, words (see series)";
    series =
      [
        { Report.label = "events/s"; points = pt (fun o -> o.events_per_s) };
        { Report.label = "sim cells forwarded/s";
          points = pt (fun o -> o.cells_per_s) };
        { Report.label = "sim payload bytes/s";
          points = pt (fun o -> o.bytes_per_s) };
        { Report.label = "live-words growth";
          points = pt (fun o -> float_of_int o.live_words_growth) };
        (* The R5 hot-path allocation lint's rent: minor-heap words per
           dispatched event. *)
        { Report.label = "minor words per event";
          points = pt (fun o -> o.minor_words_per_event) };
      ];
    paper_note =
      "self-benchmark, no paper counterpart: the engine must stay fast \
       enough that reproducing the paper's sweeps at testbed scale is \
       cheap; the workload must deliver without drops and retain nothing \
       per dispatched event";
  }
