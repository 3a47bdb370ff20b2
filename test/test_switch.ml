(* The cell-switch fabric: routing-table rewriting, overflow drop
   accounting against the always-on conservation equation, multi-host
   topologies (star and two-switch chain) delivering PDUs end to end,
   the seeded incast contention run with every loss accounted, and the
   switch datapath under explored enqueue/dequeue interleavings. *)

open Osiris_core
module Engine = Osiris_sim.Engine
module Process = Osiris_sim.Process
module Time = Osiris_sim.Time
module Cell = Osiris_atm.Cell
module Switch = Osiris_switch.Switch
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Explore = Osiris_check.Explore
module Scenarios = Osiris_check.Scenarios
module Incast = Osiris_experiments.Incast
module Fault_soak = Osiris_experiments.Fault_soak

let cell ?(vci = 10) ?(seq = 0) () =
  Cell.make ~vci ~seq ~eom:true ~last_of_pdu:true
    (Bytes.make Cell.data_size '\000')

let check_conservation sw =
  Alcotest.(check (list string))
    "cells in = forwarded + queued + dropped" []
    (Invariants.balance ~what:"switch"
       ~total:(Switch.stats sw).Switch.cells_in
       ~parts:(Switch.conservation sw))

(* Routing: the (in_port, in_vci) key picks the output port, the VCI is
   rewritten on the way through, replacement updates in place, and a
   cell with no entry is dropped and counted — never misdelivered. *)
let test_routing_rewrite () =
  let eng = Engine.create () in
  let sw =
    Switch.create eng { Switch.default_config with Switch.nports = 3 }
  in
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  Switch.add_route sw ~in_port:0 ~in_vci:11 ~out_port:2 ~out_vci:21;
  Switch.add_route sw ~in_port:1 ~in_vci:10 ~out_port:2 ~out_vci:22;
  Alcotest.(check (option (pair int int)))
    "same in_vci, different in_port"
    (Some (2, 22))
    (Switch.route sw ~in_port:1 ~in_vci:10);
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq:5 ());
  Switch.ingress_cell sw ~port:0 (cell ~vci:11 ());
  Switch.ingress_cell sw ~port:1 (cell ~vci:10 ());
  Switch.ingress_cell sw ~port:2 (cell ~vci:99 ());
  (* unroutable *)
  (match Switch.drain_one sw ~port:1 with
  | Some c ->
      Alcotest.(check int) "VCI rewritten" 20 (Cell.vci c);
      Alcotest.(check int) "seq preserved for striping" 5 (Cell.seq c);
      Alcotest.(check bool) "framing preserved" true
        (Cell.eom c && Cell.last_of_pdu c)
  | None -> Alcotest.fail "port 1 should hold the rewritten cell");
  Alcotest.(check int) "port 2 queued both routed cells" 2
    (Switch.port_occupancy sw ~port:2);
  let s = Switch.stats sw in
  Alcotest.(check int) "unroutable cell counted" 1 s.Switch.dropped_no_route;
  Alcotest.(check int) "no overflow" 0 s.Switch.dropped_overflow;
  check_conservation sw;
  (* Replacement: reprogramming the same key redirects new cells. *)
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:2 ~out_vci:30;
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ());
  Alcotest.(check int) "rerouted cell joined port 2" 3
    (Switch.port_occupancy sw ~port:2);
  check_conservation sw;
  Alcotest.check_raises "16-bit VCI enforced"
    (Invalid_argument "Switch.add_route: vci out of range") (fun () ->
      Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:0x1_0000);
  Alcotest.check_raises "port range enforced"
    (Invalid_argument "Switch.add_route: port 3 out of range") (fun () ->
      Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:3 ~out_vci:1)

(* Overflow: a queue of [cap] cells accepts exactly [cap] of a burst,
   drops the rest under the dedicated counter, and the conservation
   equation holds at the instant of the drop, mid-drain and after. *)
let test_overflow_drop_accounting () =
  let eng = Engine.create () in
  let cap = 4 and burst = 11 in
  let sw =
    Switch.create eng
      { Switch.default_config with Switch.nports = 2; Switch.queue_cells = cap }
  in
  Switch.add_route sw ~in_port:0 ~in_vci:10 ~out_port:1 ~out_vci:20;
  for seq = 0 to burst - 1 do
    Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq ());
    check_conservation sw
  done;
  let s = Switch.stats sw in
  Alcotest.(check int) "queue filled to capacity" cap
    (Switch.port_occupancy sw ~port:1);
  Alcotest.(check int) "excess dropped" (burst - cap) s.Switch.dropped_overflow;
  Alcotest.(check int) "high-water mark" cap s.Switch.max_occupancy;
  (* Drain: FIFO order, each dequeue counted as forwarded. *)
  for seq = 0 to cap - 1 do
    (match Switch.drain_one sw ~port:1 with
    | Some c -> Alcotest.(check int) "FIFO order" seq (Cell.seq c)
    | None -> Alcotest.fail "queue drained early");
    check_conservation sw
  done;
  Alcotest.(check (option reject)) "empty after drain" None
    (Switch.drain_one sw ~port:1);
  Alcotest.(check int) "all survivors forwarded" cap
    (Switch.stats sw).Switch.forwarded;
  check_conservation sw;
  (* Freed capacity accepts new cells again. *)
  Switch.ingress_cell sw ~port:0 (cell ~vci:10 ~seq:50 ());
  Alcotest.(check int) "capacity recovered" 1 (Switch.port_occupancy sw ~port:1);
  check_conservation sw

(* A star topology delivers byte-exact PDUs from every leaf to the hub
   host, each on its own freshly allocated VC. *)
let test_star_end_to_end () =
  let eng, topo =
    Network.star ~n:3
      ~switch:
        {
          Switch.default_config with
          Switch.queue_cells = 512;
          Switch.forward_latency = Time.us 1;
        }
      ()
  in
  let dst = Network.host topo 0 in
  let got = Array.make 3 0 in
  let senders = [ 1; 2 ] in
  List.iter
    (fun src ->
      let vc = Network.open_vc topo ~src ~dst:0 in
      let template = Fault_soak.fill_pattern ~msg:src ~len:6000 in
      Demux.bind dst.Host.demux ~vci:vc.Network.dst_vci
        ~name:(Printf.sprintf "sink%d" src) (fun ~vci:_ msg ->
          let data = Msg.read_all msg in
          if not (Bytes.equal data template) then
            Alcotest.failf "host %d delivered a corrupt PDU" src;
          got.(src) <- got.(src) + 1;
          Msg.dispose msg);
      let sender = Network.host topo src in
      Process.spawn eng ~name:(Printf.sprintf "tx%d" src) (fun () ->
          for _ = 1 to 4 do
            let m = Msg.alloc sender.Host.vs ~len:6000 () in
            Msg.blit_into m ~off:0 ~src:template;
            Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
            Process.sleep eng (Time.us 300)
          done))
    senders;
  Engine.run ~until:(Time.ms 20) eng;
  List.iter
    (fun src ->
      Alcotest.(check int)
        (Printf.sprintf "host %d delivered all PDUs" src)
        4 got.(src))
    senders;
  let s = Switch.stats topo.Network.switches.(0) in
  Alcotest.(check int) "fabric dropped nothing" 0
    (s.Switch.dropped_overflow + s.Switch.dropped_no_route);
  Alcotest.(check bool)
    (Printf.sprintf "fabric carried the cells (%d)" s.Switch.cells_in)
    true
    (s.Switch.cells_in > 0);
  check_conservation topo.Network.switches.(0)

(* A two-switch chain: the circuit crosses the trunk with a VCI rewrite
   at each hop, in both directions. *)
let test_chain_across_trunk () =
  let eng, topo =
    Network.chain ~n:4
      ~switch:
        {
          Switch.default_config with
          Switch.queue_cells = 512;
          Switch.forward_latency = Time.us 1;
        }
      ()
  in
  Alcotest.(check int) "four hosts" 4 (Network.nhosts topo);
  (* Host 0 lives on switch 0, host 3 on switch 1. *)
  Alcotest.(check int) "host 0 on switch 0" 0 topo.Network.endpoints.(0).Network.sw;
  Alcotest.(check int) "host 3 on switch 1" 1 topo.Network.endpoints.(3).Network.sw;
  let vc_there = Network.open_vc topo ~src:0 ~dst:3 in
  let vc_back = Network.open_vc topo ~src:3 ~dst:0 in
  Alcotest.(check bool) "fresh VCIs per circuit" true
    (vc_there.Network.src_vci <> vc_back.Network.src_vci);
  let run_dir ~src ~dst ~vc ~msg_id =
    let template = Fault_soak.fill_pattern ~msg:msg_id ~len:5000 in
    let got = ref 0 in
    let d = Network.host topo dst in
    Demux.bind d.Host.demux ~vci:vc.Network.dst_vci
      ~name:(Printf.sprintf "sink%d-%d" src dst) (fun ~vci:_ msg ->
        if not (Bytes.equal (Msg.read_all msg) template) then
          Alcotest.failf "%d->%d delivered a corrupt PDU" src dst;
        incr got;
        Msg.dispose msg);
    let s = Network.host topo src in
    Process.spawn eng ~name:(Printf.sprintf "tx%d-%d" src dst) (fun () ->
        for _ = 1 to 3 do
          let m = Msg.alloc s.Host.vs ~len:5000 () in
          Msg.blit_into m ~off:0 ~src:template;
          Driver.send s.Host.driver ~vci:vc.Network.src_vci m;
          Process.sleep eng (Time.us 400)
        done);
    got
  in
  let there = run_dir ~src:0 ~dst:3 ~vc:vc_there ~msg_id:1 in
  let back = run_dir ~src:3 ~dst:0 ~vc:vc_back ~msg_id:2 in
  Engine.run ~until:(Time.ms 25) eng;
  Alcotest.(check int) "0 -> 3 across the trunk" 3 !there;
  Alcotest.(check int) "3 -> 0 across the trunk" 3 !back;
  Array.iter
    (fun sw ->
      Alcotest.(check int)
        (Printf.sprintf "switch %s dropped nothing" (Switch.name sw))
        0
        ((Switch.stats sw).Switch.dropped_overflow
        + (Switch.stats sw).Switch.dropped_no_route);
      check_conservation sw)
    topo.Network.switches

(* The seeded 3-sender incast: a queue small enough to drop under the
   synchronized burst, with the experiment's own accounting — switch
   conservation, host invariants at quiescence, and every lost PDU
   traceable to a switch drop plus a receiver-side recovery event. *)
let test_incast_conservation () =
  let o = Incast.run ~senders:3 ~queue_cells:24 ~rounds:4 ~seed:5 () in
  Alcotest.(check (list string)) "accounting clean" [] o.Incast.violations;
  Alcotest.(check int) "offered load" 12 o.Incast.offered_pdus;
  Alcotest.(check bool)
    (Printf.sprintf "the bottleneck bit: %d cell drops" o.Incast.switch_dropped)
    true
    (o.Incast.switch_dropped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delivered %d <= offered" o.Incast.delivered_pdus)
    true
    (o.Incast.delivered_pdus <= o.Incast.offered_pdus);
  Alcotest.(check int) "nothing corrupt" 0 o.Incast.corrupted_delivered;
  Alcotest.(check int) "switch queues drained" 0 o.Incast.residual_queued;
  (* Same seed, same run: the whole fabric is deterministic. *)
  let o' = Incast.run ~senders:3 ~queue_cells:24 ~rounds:4 ~seed:5 () in
  Alcotest.(check int) "deterministic deliveries" o.Incast.delivered_pdus
    o'.Incast.delivered_pdus;
  Alcotest.(check int) "deterministic drops" o.Incast.switch_dropped
    o'.Incast.switch_dropped

(* And a queue big enough for the burst: zero loss, full delivery. *)
let test_incast_lossless_when_provisioned () =
  let o = Incast.run ~senders:3 ~queue_cells:192 ~rounds:4 ~seed:5 () in
  Alcotest.(check (list string)) "accounting clean" [] o.Incast.violations;
  Alcotest.(check int) "no switch drops" 0 o.Incast.switch_dropped;
  Alcotest.(check int) "everything delivered" o.Incast.offered_pdus
    o.Incast.delivered_pdus

(* The switch datapath under explored same-instant interleavings of
   ingress and drain: conservation and VCI rewriting hold on every
   schedule, liveness at the end of each. *)
let test_explore_switch_datapath () =
  match Explore.dfs ~max_depth:8 ~max_runs:512 (Scenarios.switch_datapath ())
  with
  | Some f, _ ->
      Alcotest.failf "unexpected counterexample %s"
        (Format.asprintf "%a" Explore.pp_failure f)
  | None, runs ->
      Alcotest.(check bool)
        (Printf.sprintf "explored several schedules (%d)" runs)
        true (runs > 1)

(* The egress drain batch is a simulator-speed knob only: the same
   overloaded workload (small queue, bursty senders, real drops) must
   produce bit-identical outcomes — deliveries with timestamps, every
   switch counter, final clock and event count — for any batch size. *)
let test_drain_batch_invisible () =
  let outcome drain_batch =
    let eng, topo =
      Network.star ~n:3
        ~switch:
          {
            Switch.default_config with
            Switch.queue_cells = 24;
            Switch.drain_batch = drain_batch;
          }
        ()
    in
    let dst = Network.host topo 0 in
    let deliveries = ref [] in
    List.iter
      (fun src ->
        let vc = Network.open_vc topo ~src ~dst:0 in
        Demux.bind dst.Host.demux ~vci:vc.Network.dst_vci
          ~name:(Printf.sprintf "sink%d" src) (fun ~vci:_ msg ->
            deliveries := (src, Engine.now eng) :: !deliveries;
            Msg.dispose msg);
        let sender = Network.host topo src in
        Process.spawn eng ~name:(Printf.sprintf "tx%d" src) (fun () ->
            for _ = 1 to 5 do
              let m = Msg.alloc sender.Host.vs ~len:4000 () in
              Msg.blit_into m ~off:0
                ~src:(Fault_soak.fill_pattern ~msg:src ~len:4000);
              Driver.send sender.Host.driver ~vci:vc.Network.src_vci m;
              Process.sleep eng (Time.us 150)
            done))
      [ 1; 2 ];
    Engine.run ~until:(Time.ms 15) eng;
    check_conservation topo.Network.switches.(0);
    let s = Switch.stats topo.Network.switches.(0) in
    ( List.rev !deliveries,
      ( s.Switch.cells_in,
        s.Switch.forwarded,
        s.Switch.dropped_overflow,
        s.Switch.max_occupancy ),
      Engine.now eng,
      Engine.events_dispatched eng )
  in
  let base = outcome 1 in
  let _, (_, _, dropped, _), _, _ = base in
  Alcotest.(check bool)
    (Printf.sprintf "workload overloads the queue (%d drops)" dropped)
    true (dropped > 0);
  List.iter
    (fun b ->
      if outcome b <> base then
        Alcotest.failf "drain_batch=%d changed simulation outcomes" b)
    [ 3; 8; 64 ]

let suite =
  [
    Alcotest.test_case "routing rewrites and drops unroutable cells" `Quick
      test_routing_rewrite;
    Alcotest.test_case "overflow drops are accounted" `Quick
      test_overflow_drop_accounting;
    Alcotest.test_case "star topology delivers end to end" `Quick
      test_star_end_to_end;
    Alcotest.test_case "chain crosses the trunk both ways" `Quick
      test_chain_across_trunk;
    Alcotest.test_case "incast conserves every cell" `Quick
      test_incast_conservation;
    Alcotest.test_case "provisioned incast is lossless" `Quick
      test_incast_lossless_when_provisioned;
    Alcotest.test_case "explored switch datapath stays clean" `Quick
      test_explore_switch_datapath;
    Alcotest.test_case "drain batch size is invisible to outcomes" `Quick
      test_drain_batch_invisible;
  ]
