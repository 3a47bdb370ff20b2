(* Failure-injection and stress tests: the system must stay correct (no
   corruption, no leaks, no wedges) under lossy links, jittery striping,
   and concurrent streams. *)

open Osiris_sim
open Osiris_core
module Board = Osiris_board.Board
module Atm_link = Osiris_link.Atm_link
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Udp = Osiris_proto.Udp

let raw_vci = 9

let pair ?link ?(machine = Machine.ds5000_200) () =
  let eng = Engine.create () in
  let a = Host.create eng machine ~addr:0x0a000001l Host.default_config in
  let b =
    Host.create eng machine ~addr:0x0a000002l
      { Host.default_config with seed = 43 }
  in
  ignore (Network.connect eng ?link a b);
  (eng, a, b)

(* Heavy cell loss: most PDUs die, but every delivered byte is correct and
   the system keeps flowing (no buffer leaks, no reassembly wedge). *)
let test_lossy_link_no_corruption () =
  let link =
    { Atm_link.default_config with Atm_link.drop_prob = 0.003 }
  in
  let eng, a, b = pair ~link () in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let good = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      if not (Bytes.equal (Msg.read_all msg) template) then
        Alcotest.fail "corrupted PDU delivered despite cell loss";
      incr good;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 60 do
        let m = Msg.alloc a.Host.vs ~len:8192 () in
        Msg.blit_into m ~off:0 ~src:template;
        Driver.send a.Host.driver ~vci:raw_vci m
      done);
  Engine.run ~until:(Time.s 1) eng;
  let bstats = Board.stats b.Host.board in
  Alcotest.(check bool)
    (Printf.sprintf "losses occurred (%d reasm errors)"
       bstats.Board.reassembly_errors)
    true
    (bstats.Board.reassembly_errors > 0
    || (Driver.stats b.Host.driver).Driver.crc_drops > 0
    || (Driver.stats b.Host.driver).Driver.aborted_chains > 0);
  Alcotest.(check bool)
    (Printf.sprintf "flow survived (%d delivered)" !good)
    true (!good > 10);
  (* No leak: the receive pool must be reusable afterwards. *)
  Alcotest.(check bool) "buffers recovered" true
    (Driver.pool_available b.Host.driver
     + Osiris_board.Desc_queue.count
         (Board.free_queue (Board.kernel_channel b.Host.board))
    > 40)

(* Random per-cell queueing jitter (switch-port delays, §2.6's third cause
   of skew): per-link order is preserved by construction, and per-link
   reassembly keeps delivering intact PDUs. *)
let test_jittery_striping_end_to_end () =
  let link =
    { Atm_link.default_config with Atm_link.jitter_mean = Time.us 3 }
  in
  let eng, a, b = pair ~link () in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let template = Bytes.init 12000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let good = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      Alcotest.(check bool) "intact under jitter" true
        (Bytes.equal (Msg.read_all msg) template);
      incr good;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 20 do
        let m = Msg.alloc a.Host.vs ~len:12000 () in
        Msg.blit_into m ~off:0 ~src:template;
        Driver.send a.Host.driver ~vci:raw_vci m;
        Process.sleep eng (Time.us 500)
      done);
  Engine.run ~until:(Time.s 1) eng;
  Alcotest.(check int) "all delivered" 20 !good

(* Several VCIs interleaving on one link: streams never bleed into each
   other. *)
let test_concurrent_streams_isolation () =
  let eng, a, b = pair () in
  let streams = [ (11, 'A', 3000); (12, 'B', 9000); (13, 'C', 500) ] in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (vci, tag, size) ->
      Board.bind_vci a.Host.board ~vci (Board.kernel_channel a.Host.board);
      Board.bind_vci b.Host.board ~vci (Board.kernel_channel b.Host.board);
      Demux.bind b.Host.demux ~vci ~name:"sink" (fun ~vci:_ msg ->
          let data = Msg.read_all msg in
          Alcotest.(check int) (Printf.sprintf "stream %c size" tag) size
            (Bytes.length data);
          Bytes.iter
            (fun c ->
              if c <> tag then
                Alcotest.fail
                  (Printf.sprintf "stream %c polluted with %c" tag c))
            data;
          Hashtbl.replace counts vci
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts vci));
          Msg.dispose msg))
    streams;
  List.iter
    (fun (vci, tag, size) ->
      Process.spawn eng ~name:"tx" (fun () ->
          for _ = 1 to 12 do
            Driver.send a.Host.driver ~vci
              (Msg.alloc a.Host.vs ~len:size ~fill:(fun _ -> tag) ());
            Process.sleep eng (Time.us 150)
          done))
    streams;
  Engine.run ~until:(Time.s 1) eng;
  List.iter
    (fun (vci, tag, _) ->
      Alcotest.(check int)
        (Printf.sprintf "stream %c complete" tag)
        12
        (Option.value ~default:0 (Hashtbl.find_opt counts vci)))
    streams

(* UDP checksum on over a corrupting link: corrupt datagrams are dropped
   by the CRC at the adaptor (never billed to UDP), clean ones verify. *)
let test_udp_over_corrupting_link () =
  let link =
    { Atm_link.default_config with Atm_link.corrupt_prob = 0.001 }
  in
  let eng, a, b = pair ~link () in
  let ok = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr ok;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 40 do
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
          (Msg.alloc a.Host.vs ~len:4096 ());
        Process.sleep eng (Time.us 300)
      done);
  Engine.run ~until:(Time.s 1) eng;
  let crc = (Driver.stats b.Host.driver).Driver.crc_drops in
  Alcotest.(check bool)
    (Printf.sprintf "some dropped by CRC (%d), most delivered (%d)" crc !ok)
    true
    (crc > 0 && !ok > 25 && !ok + crc = 40);
  Alcotest.(check int) "UDP never saw corrupt data" 0
    (Udp.stats b.Host.udp).Udp.checksum_errors

(* Determinism: two identical runs produce byte-identical outcomes. *)
let test_network_determinism () =
  let run () =
    let link =
      { Atm_link.default_config with
        Atm_link.jitter_mean = Time.us 2; drop_prob = 0.002 }
    in
    let eng, a, b = pair ~link () in
    let n = ref 0 in
    Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
        incr n;
        Msg.dispose msg);
    Process.spawn eng ~name:"tx" (fun () ->
        for _ = 1 to 30 do
          Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
            (Msg.alloc a.Host.vs ~len:6000 ());
          Process.sleep eng (Time.us 200)
        done);
    Engine.run ~until:(Time.ms 500) eng;
    ( !n,
      (Board.stats b.Host.board).Board.cells_received,
      (Driver.stats b.Host.driver).Driver.crc_drops,
      Engine.now eng )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "identical outcomes" true (r1 = r2)

(* ------------------------------------------------------------------ *)
(* Fault-injection subsystem: recovery timers, degradation, soak. *)

module Cell = Osiris_atm.Cell
module Atm = Atm_link
module Adc = Osiris_adc.Adc
module Plan = Osiris_fault.Plan
module Injector = Osiris_fault.Injector
module Fault_soak = Osiris_experiments.Fault_soak

(* Like [pair], but with recovery machinery configurable and the network
   record kept so tests can reach the links. *)
let fault_pair ?link ?(board = Board.default_config)
    ?(machine = Machine.ds5000_200) () =
  let eng = Engine.create () in
  let cfg = { Host.default_config with Host.board } in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b =
    Host.create eng machine ~addr:0x0a000002l { cfg with Host.seed = 43 }
  in
  let net = Network.connect eng ?link a b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  (eng, a, b, net)

let raw_sink ?(expect_size = true) b template good =
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      let data = Msg.read_all msg in
      if expect_size && Bytes.length data <> Bytes.length template then
        Alcotest.fail "wrong-sized PDU delivered"
      else if not (Bytes.equal data template) then
        Alcotest.fail "corrupted PDU delivered";
      incr good;
      Msg.dispose msg)

let send_template a template =
  let m = Msg.alloc a.Host.vs ~len:(Bytes.length template) () in
  Msg.blit_into m ~off:0 ~src:template;
  Driver.send a.Host.driver ~vci:raw_vci m

(* The regression this PR exists for: drop a single framing-bit (eom)
   cell under per-link reassembly and, without a reassembly timeout, that
   VC holds its partial buffers forever. With the timeout the board
   sweeps the stuck PDU, posts the timeout abort marker, the driver
   recycles the partial chain under the dedicated counter, and the next
   PDU flows. *)
let test_dropped_framing_cell_times_out () =
  let eng, a, b, net =
    fault_pair
      ~board:{ Board.default_config with Board.reassembly_timeout = Time.ms 1 }
      ()
  in
  (* 40000 bytes spans three 16 KB pool buffers, so part of the chain is
     already posted to the host when the stall hits — exercising the
     abort-marker path, not just board-side cleanup. *)
  let template = Bytes.init 40000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let good = ref 0 in
  raw_sink b template good;
  let dropped = ref false in
  Atm.set_cell_filter net.Network.a_to_b
    (Some
       (fun _link cell ->
         if Cell.eom cell && not !dropped then begin
           dropped := true;
           false
         end
         else true));
  Process.spawn eng ~name:"tx" (fun () ->
      send_template a template;
      Process.sleep eng (Time.ms 5);
      Atm.set_cell_filter net.Network.a_to_b None;
      send_template a template);
  Engine.run ~until:(Time.ms 20) eng;
  Alcotest.(check bool) "framing cell was dropped" true !dropped;
  Alcotest.(check int) "second PDU delivered after recovery" 1 !good;
  let d = Driver.stats b.Host.driver in
  Alcotest.(check int) "driver counts a timeout abort" 1 d.Driver.timeout_aborts;
  Alcotest.(check bool) "board sweeper fired" true
    ((Board.stats b.Host.board).Board.reassembly_timeouts >= 1);
  Alcotest.(check int) "nothing left in reassembly" 0
    (Board.reassemblies_in_progress b.Host.board);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Duplicated cells shift the per-link streams, so affected PDUs die at
   the CRC; delivered ones stay byte-exact, spurious reassemblies opened
   by late duplicates are swept, and nothing leaks. *)
let test_duplicate_cells_harmless () =
  (* 0.003/cell: a 171-cell PDU survives duplication-free ~60% of the
     time, so losses and survivors are both well represented. *)
  let link = { Atm.default_config with Atm.dup_prob = 0.003 } in
  let eng, a, b, net =
    fault_pair ~link
      ~board:{ Board.default_config with Board.reassembly_timeout = Time.ms 2 }
      ()
  in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 5) land 0xff)) in
  let good = ref 0 in
  raw_sink b template good;
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 40 do
        send_template a template;
        Process.sleep eng (Time.us 300)
      done);
  Engine.run ~until:(Time.ms 40) eng;
  let l = Atm.stats net.Network.a_to_b in
  Alcotest.(check bool)
    (Printf.sprintf "cells were duplicated (%d)" l.Atm.duplicated)
    true (l.Atm.duplicated > 0);
  Alcotest.(check bool)
    (Printf.sprintf "flow survived (%d delivered)" !good)
    true (!good > 10);
  Alcotest.(check int) "no residual reassemblies" 0
    (Board.reassemblies_in_progress b.Host.board);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Header corruption (VCI/seq mangles): misdelivered cells either land on
   an unbound VCI or scramble a stream the CRC then rejects — never a
   corrupt delivery — and the timeout sweeps any reassembly a stray cell
   opened. *)
let test_header_corruption_never_escapes () =
  let link = { Atm.default_config with Atm.corrupt_header_prob = 0.005 } in
  let eng, a, b, net =
    fault_pair ~link
      ~board:{ Board.default_config with Board.reassembly_timeout = Time.ms 2 }
      ()
  in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 3) land 0xff)) in
  let good = ref 0 in
  raw_sink b template good;
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 40 do
        send_template a template;
        Process.sleep eng (Time.us 300)
      done);
  Engine.run ~until:(Time.ms 40) eng;
  let l = Atm.stats net.Network.a_to_b in
  Alcotest.(check bool)
    (Printf.sprintf "headers were corrupted (%d)" l.Atm.header_corrupted)
    true (l.Atm.header_corrupted > 0);
  Alcotest.(check bool)
    (Printf.sprintf "flow survived (%d delivered)" !good)
    true (!good > 10);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Carrier loss mid-stream: both ends re-stripe over the survivors and
   traffic keeps flowing during the outage; the boundary PDUs die with
   accounting, and full width returns when the carrier does. *)
let test_link_down_degrades_gracefully () =
  let eng, a, b, net =
    fault_pair
      ~board:{ Board.default_config with Board.reassembly_timeout = Time.ms 2 }
      ()
  in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 9) land 0xff)) in
  let good = ref 0 and good_during_outage = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      if not (Bytes.equal (Msg.read_all msg) template) then
        Alcotest.fail "corrupted PDU delivered";
      incr good;
      let now = Engine.now eng in
      if now > Time.ms 5 && now < Time.ms 15 then incr good_during_outage;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 60 do
        send_template a template;
        Process.sleep eng (Time.us 300)
      done);
  Process.spawn eng ~name:"carrier" (fun () ->
      Process.sleep eng (Time.ms 5);
      Atm.set_link_state net.Network.a_to_b ~link:2 false;
      Process.sleep eng (Time.ms 10);
      Atm.set_link_state net.Network.a_to_b ~link:2 true);
  Engine.run ~until:(Time.ms 40) eng;
  Alcotest.(check int) "full stripe width restored" 4
    (Atm.nlive net.Network.a_to_b);
  Alcotest.(check bool)
    (Printf.sprintf "traffic flowed during the outage (%d)"
       !good_during_outage)
    true
    (!good_during_outage > 0);
  Alcotest.(check bool)
    (Printf.sprintf "most PDUs delivered (%d/60)" !good)
    true (!good > 40);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Per-ADC interrupt loss (ROADMAP item): a plan burst targeting one
   channel's [Rx_nonempty] assertions starves only that ADC — the kernel
   channel keeps delivering through the outage — and the [irq_reassert]
   watchdog restores the ADC once the burst ends. *)
let test_per_channel_irq_loss () =
  let eng, a, b, net =
    fault_pair
      ~board:{ Board.default_config with Board.irq_reassert = Time.ms 1 }
      ()
  in
  let app_a = Adc.open_ a ~name:"app-a" () in
  let app_b = Adc.open_ b ~name:"app-b" () in
  let adc_vci = 40 in
  Board.bind_vci a.Host.board ~vci:adc_vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci:adc_vci (Adc.channel app_b);
  let adc_ch = Board.channel_id (Adc.channel app_b) in
  let template = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let kern_good = ref 0 and adc_good = ref 0 in
  raw_sink b template kern_good;
  Demux.bind (Adc.demux app_b) ~vci:adc_vci ~name:"app-sink"
    (fun ~vci:_ msg ->
      incr adc_good;
      Msg.dispose msg);
  (* Every Rx_nonempty for the ADC's channel is eaten until 8 ms; channel
     0 (the kernel) draws no filter decision at all. *)
  let plan =
    Plan.of_string (Printf.sprintf "seed=5;irqloss#%d@0-8ms=1" adc_ch)
  in
  ignore
    (Injector.inject eng ~plan ~link:net.Network.a_to_b ~board:b.Host.board ());
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 20 do
        send_template a template;
        Adc.send app_a ~vci:adc_vci (Adc.alloc_msg app_a ~len:2048 ());
        Process.sleep eng (Time.us 200)
      done);
  ignore
    (Engine.schedule_at eng ~time:(Time.ms 7) (fun () ->
         Alcotest.(check bool)
           (Printf.sprintf "kernel flowed during the outage (%d)" !kern_good)
           true (!kern_good > 0);
         Alcotest.(check int) "ADC starved during the outage" 0 !adc_good));
  Engine.run ~until:(Time.ms 30) eng;
  let bstats = Board.stats b.Host.board in
  Alcotest.(check bool)
    (Printf.sprintf "interrupts were suppressed (%d)"
       bstats.Board.interrupts_suppressed)
    true
    (bstats.Board.interrupts_suppressed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "watchdog re-asserted (%d)" bstats.Board.irq_reasserts)
    true
    (bstats.Board.irq_reasserts > 0);
  Alcotest.(check int) "kernel channel unaffected" 20 !kern_good;
  Alcotest.(check int) "ADC recovered after the burst" 20 !adc_good;
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Per-ADC free-queue starvation (ROADMAP item): a plan window gating one
   channel's free queue drops that ADC's PDUs for want of buffers while
   the kernel channel keeps flowing; replenishment returns when the
   window closes and the ADC catches the next batch. *)
let test_per_channel_free_starvation () =
  let eng, a, b, net = fault_pair () in
  let app_a = Adc.open_ a ~name:"app-a" () in
  let app_b = Adc.open_ b ~name:"app-b" () in
  let adc_vci = 40 in
  Board.bind_vci a.Host.board ~vci:adc_vci (Adc.channel app_a);
  Board.bind_vci b.Host.board ~vci:adc_vci (Adc.channel app_b);
  let adc_ch = Board.channel_id (Adc.channel app_b) in
  let template = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let kern_good = ref 0 and adc_good = ref 0 in
  raw_sink b template kern_good;
  Demux.bind (Adc.demux app_b) ~vci:adc_vci ~name:"app-sink"
    (fun ~vci:_ msg ->
      incr adc_good;
      Msg.dispose msg);
  let plan =
    Plan.of_string (Printf.sprintf "seed=5;freestarve#%d@0-8ms" adc_ch)
  in
  ignore
    (Injector.inject eng ~plan ~link:net.Network.a_to_b ~board:b.Host.board ());
  Alcotest.(check bool) "gate armed" true
    (Board.free_gated b.Host.board ~ch:adc_ch);
  Alcotest.(check bool) "kernel channel not gated" false
    (Board.free_gated b.Host.board ~ch:0);
  (* First batch lands entirely inside the starvation window. *)
  Process.spawn eng ~name:"tx1" (fun () ->
      for _ = 1 to 15 do
        send_template a template;
        Adc.send app_a ~vci:adc_vci (Adc.alloc_msg app_a ~len:2048 ());
        Process.sleep eng (Time.us 200)
      done);
  ignore
    (Engine.schedule_at eng ~time:(Time.ms 7) (fun () ->
         Alcotest.(check bool)
           (Printf.sprintf "kernel flowed while the ADC starved (%d)"
              !kern_good)
           true (!kern_good > 0);
         Alcotest.(check int) "starved ADC delivered nothing" 0 !adc_good));
  (* Second batch goes out after replenishment returns. *)
  Process.spawn eng ~name:"tx2" (fun () ->
      Process.sleep eng (Time.ms 10);
      for _ = 1 to 10 do
        Adc.send app_a ~vci:adc_vci (Adc.alloc_msg app_a ~len:2048 ());
        Process.sleep eng (Time.us 200)
      done);
  Engine.run ~until:(Time.ms 30) eng;
  let bstats = Board.stats b.Host.board in
  Alcotest.(check bool)
    (Printf.sprintf "starved PDUs dropped for want of buffers (%d)"
       bstats.Board.pdus_dropped_no_buffer)
    true
    (bstats.Board.pdus_dropped_no_buffer >= 15);
  Alcotest.(check int) "kernel channel unaffected" 15 !kern_good;
  Alcotest.(check int) "ADC recovered after the window" 10 !adc_good;
  Alcotest.(check bool) "gate released" false
    (Board.free_gated b.Host.board ~ch:adc_ch);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Carrier flap storm (ROADMAP item): channel 2 toggles every 40 µs for
   2 ms — far faster than one 8 KB PDU's ~130 µs wire time — so every
   overlapping PDU is sacrificed to a re-stripe. Convergence contract:
   full width returns after the storm, delivery resumes, and
   restripe_aborts stays bounded by the number of carrier transitions
   (nothing compounds). *)
let test_carrier_flap_storm () =
  let eng, a, b, net =
    fault_pair
      ~board:{ Board.default_config with Board.reassembly_timeout = Time.ms 2 }
      ()
  in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 9) land 0xff)) in
  let good = ref 0 and good_after_storm = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      if not (Bytes.equal (Msg.read_all msg) template) then
        Alcotest.fail "corrupted PDU delivered";
      incr good;
      if Engine.now eng > Time.ms 5 then incr good_after_storm;
      Msg.dispose msg);
  (* 2 ms / 40 µs = 50 toggles; both boards re-stripe on each one. *)
  let plan = Plan.of_string "seed=6;flap#2@2ms-4ms=40us" in
  ignore
    (Injector.inject eng ~plan ~link:net.Network.a_to_b ~board:b.Host.board ());
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 50 do
        send_template a template;
        Process.sleep eng (Time.us 300)
      done);
  Engine.run ~until:(Time.ms 40) eng;
  Alcotest.(check int) "full stripe width restored" 4
    (Atm.nlive net.Network.a_to_b);
  let aborts =
    (Board.stats a.Host.board).Board.restripe_aborts
    + (Board.stats b.Host.board).Board.restripe_aborts
  in
  Alcotest.(check bool)
    (Printf.sprintf "storm forced re-stripe aborts (%d)" aborts)
    true (aborts > 0);
  (* 51 transitions worst-case, one in-flight PDU per end per
     transition: anything past that would mean aborts compounding. *)
  Alcotest.(check bool)
    (Printf.sprintf "restripe aborts bounded by transitions (%d <= 102)"
       aborts)
    true (aborts <= 102);
  Alcotest.(check bool)
    (Printf.sprintf "delivery resumed after the storm (%d)"
       !good_after_storm)
    true
    (!good_after_storm > 10);
  Invariants.assert_clean ~quiescent:true ~board:b.Host.board
    ~driver:b.Host.driver ()

(* Plans are data: textual round-trip and window arithmetic. *)
let test_plan_roundtrip () =
  let p = Plan.random ~seed:42 ~horizon:(Time.ms 20) () in
  Alcotest.(check string) "to_string . of_string = id" (Plan.to_string p)
    (Plan.to_string (Plan.of_string (Plan.to_string p)));
  let q = Plan.of_string "seed=3;drop@1ms-2ms=0.01;down#1@500us-1500us" in
  let k = Plan.knobs_at q (Time.us 1200) in
  Alcotest.(check (float 1e-9)) "drop active" 0.01 k.Plan.k_drop;
  Alcotest.(check (list int)) "link 1 down" [ 1 ] k.Plan.k_down;
  let k' = Plan.knobs_at q (Time.ms 3) in
  Alcotest.(check (float 1e-9)) "drop over" 0.0 k'.Plan.k_drop;
  Alcotest.(check (list int)) "carrier back" [] k'.Plan.k_down;
  (* Per-channel interrupt loss: round-trips, keeps the global dimension
     separate, and knobs only list channels with an active burst. *)
  let r = Plan.of_string "irqloss@1ms-4ms=0.25;irqloss#3@2ms-6ms=0.75" in
  Alcotest.(check string) "irqloss#N round-trips" (Plan.to_string r)
    (Plan.to_string (Plan.of_string (Plan.to_string r)));
  let kr = Plan.knobs_at r (Time.ms 3) in
  Alcotest.(check (float 1e-9)) "global irqloss" 0.25 kr.Plan.k_irq_loss;
  Alcotest.(check (list (pair int (float 1e-9)))) "channel 3 irqloss"
    [ (3, 0.75) ] kr.Plan.k_irq_loss_ch;
  let kr' = Plan.knobs_at r (Time.ms 5) in
  Alcotest.(check (float 1e-9)) "global over" 0.0 kr'.Plan.k_irq_loss;
  Alcotest.(check (list (pair int (float 1e-9)))) "channel 3 still active"
    [ (3, 0.75) ] kr'.Plan.k_irq_loss_ch;
  Alcotest.(check (list (pair int (float 1e-9)))) "all quiet at 7ms" []
    (Plan.knobs_at r (Time.ms 7)).Plan.k_irq_loss_ch;
  (* Free-queue starvation and flap storms: round-trip plus the flap
     parity arithmetic (down on even half-periods, up on odd, restored
     once the window closes). *)
  let f = Plan.of_string "freestarve#1@2ms-4ms;flap#2@2ms-4ms=40us" in
  Alcotest.(check string) "freestarve/flap round-trip" (Plan.to_string f)
    (Plan.to_string (Plan.of_string (Plan.to_string f)));
  Alcotest.(check (list int)) "channel 1 starved at 3ms" [ 1 ]
    (Plan.knobs_at f (Time.ms 3)).Plan.k_free_starve;
  Alcotest.(check (list int)) "starvation over at 5ms" []
    (Plan.knobs_at f (Time.ms 5)).Plan.k_free_starve;
  Alcotest.(check (list int)) "flap down on an even half-period" [ 2 ]
    (Plan.knobs_at f (Time.ms 2 + Time.us 10)).Plan.k_down;
  Alcotest.(check (list int)) "flap up on an odd half-period" []
    (Plan.knobs_at f (Time.ms 2 + Time.us 50)).Plan.k_down;
  Alcotest.(check (list int)) "flap down again next period" [ 2 ]
    (Plan.knobs_at f (Time.ms 2 + Time.us 90)).Plan.k_down;
  Alcotest.(check (list int)) "carrier restored after the storm" []
    (Plan.knobs_at f (Time.ms 5)).Plan.k_down;
  (* Boundary density: one per toggle so the injector tracks the storm —
     50 toggles plus the window close (the starvation window's edges
     coincide with the first toggle and the close). *)
  Alcotest.(check int) "flap storm boundary count" 51
    (List.length (Plan.boundaries f));
  (* Fabric dimensions: port-flap storms and trunk-loss bursts. *)
  let g = Plan.of_string "portflap#1@2ms-4ms=100us;trunkloss@1ms-3ms=0.2" in
  Alcotest.(check string) "portflap/trunkloss round-trip" (Plan.to_string g)
    (Plan.to_string (Plan.of_string (Plan.to_string g)));
  Alcotest.(check (list int)) "port 1 down on an even half-period" [ 1 ]
    (Plan.knobs_at g (Time.ms 2 + Time.us 20)).Plan.k_port_down;
  Alcotest.(check (list int)) "port 1 up on an odd half-period" []
    (Plan.knobs_at g (Time.ms 2 + Time.us 120)).Plan.k_port_down;
  Alcotest.(check (float 1e-9)) "trunk loss active" 0.2
    (Plan.knobs_at g (Time.ms 2)).Plan.k_trunk_loss;
  Alcotest.(check (float 1e-9)) "trunk loss over" 0.0
    (Plan.knobs_at g (Time.ms 3)).Plan.k_trunk_loss;
  Alcotest.(check (list int)) "port restored after the storm" []
    (Plan.knobs_at g (Time.ms 5)).Plan.k_port_down;
  (* Topology dimensions: switch-addressed port storms and clean trunk
     cuts over a generated fabric. *)
  let h = Plan.of_string "swflap#3.2@2ms-4ms=100us;trunkdown#5@1ms-3ms" in
  Alcotest.(check string) "swflap/trunkdown round-trip" (Plan.to_string h)
    (Plan.to_string (Plan.of_string (Plan.to_string h)));
  Alcotest.(check (list (pair int int)))
    "switch 3 port 2 down on an even half-period"
    [ (3, 2) ]
    (Plan.knobs_at h (Time.ms 2 + Time.us 20)).Plan.k_sw_port_down;
  Alcotest.(check (list (pair int int))) "up on an odd half-period" []
    (Plan.knobs_at h (Time.ms 2 + Time.us 120)).Plan.k_sw_port_down;
  Alcotest.(check (list int)) "trunk 5 cut at 2ms" [ 5 ]
    (Plan.knobs_at h (Time.ms 2)).Plan.k_trunk_down;
  Alcotest.(check (list int)) "trunk restored at 3ms" []
    (Plan.knobs_at h (Time.ms 3)).Plan.k_trunk_down;
  Alcotest.(check (list (pair int int))) "switch port restored after" []
    (Plan.knobs_at h (Time.ms 5)).Plan.k_sw_port_down

(* Property: any plan, across every fault dimension including the fabric
   ones, survives a textual round-trip — [to_string] output re-parses to
   a plan with the same text and the same boundary set. *)
let qcheck_plan_roundtrip =
  let open QCheck in
  let gen =
    let open Gen in
    let time lo hi = map Time.us (lo -- hi) in
    let ordered lo hi =
      pair (time lo hi) (time lo hi) >|= fun (a, b) ->
      if a < b then (a, b) else (b, a + Time.us 1)
    in
    let prob = 1 -- 1000 >|= fun k -> float_of_int k /. 1000. in
    let burst =
      pair (ordered 0 5000) prob >|= fun ((b_from, b_until), prob) ->
      { Plan.b_from; b_until; prob }
    in
    let window =
      ordered 0 5000 >|= fun (w_from, w_until) -> { Plan.w_from; w_until }
    in
    let chan_window = pair (0 -- 5) window in
    let storm =
      triple (0 -- 5) window (time 10 500) >|= fun (c, w, hp) -> (c, w, hp)
    in
    let bursts = list_size (0 -- 3) burst in
    let windows = list_size (0 -- 2) chan_window in
    let storms = list_size (0 -- 2) storm in
    (0 -- 10000) >>= fun seed ->
    bursts >>= fun drop ->
    bursts >>= fun corrupt ->
    bursts >>= fun corrupt_header ->
    bursts >>= fun duplicate ->
    windows >>= fun link_down ->
    windows >>= fun rx_squeeze ->
    bursts >>= fun irq_loss ->
    list_size (0 -- 2) (pair (0 -- 5) burst) >>= fun irq_loss_ch ->
    windows >>= fun free_starve ->
    storms >>= fun flap ->
    storms >>= fun port_flap ->
    bursts >>= fun trunk_loss ->
    list_size (0 -- 2) (quad (0 -- 5) (0 -- 5) window (time 10 500))
    >>= fun sw_flap ->
    windows >|= fun trunk_down ->
    {
      Plan.seed;
      drop;
      corrupt;
      corrupt_header;
      duplicate;
      link_down;
      rx_squeeze;
      irq_loss;
      irq_loss_ch;
      free_starve;
      flap;
      port_flap;
      trunk_loss;
      sw_flap;
      trunk_down;
    }
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200 ~name:"plan textual round-trip (all dimensions)"
       (make ~print:Plan.to_string gen)
       (fun p ->
         let s = Plan.to_string p in
         let p' = Plan.of_string s in
         String.equal s (Plan.to_string p')
         && Plan.boundaries p = Plan.boundaries p'))

(* The headline artifact: N seeds x randomized multi-dimension fault
   plans (drop + corruption + header mangles + duplication + a carrier
   outage + FIFO squeeze + lost interrupts) over the full host-to-host
   path. Per seed: goodput above zero, nothing delivered that is not
   byte-identical to a sent PDU, no residual reassembly, and the
   conservation/shadow/age invariants clean at quiescence. *)
let test_multi_seed_soak () =
  let seeds =
    match Sys.getenv_opt "OSIRIS_SOAK_SEEDS" with
    | Some s when String.trim s <> "" ->
        List.map int_of_string (String.split_on_char ',' (String.trim s))
    | _ -> [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun seed ->
      let o = Fault_soak.run ~seed () in
      let ctx what =
        Printf.sprintf "seed %d %s (plan: %s)" seed what o.Fault_soak.plan
      in
      Alcotest.(check bool) (ctx "goodput > 0") true
        (o.Fault_soak.goodput_mbps > 0.0);
      Alcotest.(check int) (ctx "corrupted deliveries") 0
        o.Fault_soak.corrupted_delivered;
      Alcotest.(check int) (ctx "residual reassemblies") 0
        o.Fault_soak.residual_reassemblies;
      Alcotest.(check (list string)) (ctx "invariants") []
        o.Fault_soak.violations)
    seeds

let suite =
  [
    Alcotest.test_case "lossy link: no corruption, no wedge" `Quick
      test_lossy_link_no_corruption;
    Alcotest.test_case "dropped framing cell recovers via timeout" `Quick
      test_dropped_framing_cell_times_out;
    Alcotest.test_case "duplicate cells are harmless" `Quick
      test_duplicate_cells_harmless;
    Alcotest.test_case "header corruption never escapes the CRC" `Quick
      test_header_corruption_never_escapes;
    Alcotest.test_case "link down degrades gracefully" `Quick
      test_link_down_degrades_gracefully;
    Alcotest.test_case "per-ADC interrupt loss is channel-scoped" `Quick
      test_per_channel_irq_loss;
    Alcotest.test_case "per-ADC free-queue starvation is channel-scoped"
      `Quick test_per_channel_free_starvation;
    Alcotest.test_case "carrier flap storm converges" `Quick
      test_carrier_flap_storm;
    Alcotest.test_case "fault plans round-trip" `Quick test_plan_roundtrip;
    qcheck_plan_roundtrip;
    Alcotest.test_case "multi-seed fault soak" `Slow test_multi_seed_soak;
    Alcotest.test_case "jittery striping end-to-end" `Quick
      test_jittery_striping_end_to_end;
    Alcotest.test_case "concurrent streams stay isolated" `Quick
      test_concurrent_streams_isolation;
    Alcotest.test_case "udp over a corrupting link" `Quick
      test_udp_over_corrupting_link;
    Alcotest.test_case "whole-network determinism" `Quick
      test_network_determinism;
  ]
