(* Integration tests: two complete hosts exchanging traffic through their
   simulated OSIRIS adaptors. *)

open Osiris_sim
open Osiris_core
module Board = Osiris_board.Board
module Msg = Osiris_xkernel.Msg
module Demux = Osiris_xkernel.Demux
module Udp = Osiris_proto.Udp
module Ip = Osiris_proto.Ip
module Irq = Osiris_os.Irq

let raw_vci = 9

let test_udp_end_to_end_integrity () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  let received = ref [] in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      received := Msg.read_all msg :: !received;
      Msg.dispose msg);
  let payloads =
    List.map
      (fun (size, tag) -> Bytes.init size (fun i -> Char.chr ((i + tag) land 0xff)))
      [ (1, 1); (4096, 2); (16 * 1024, 3); (60_000, 4) ]
  in
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter
        (fun p ->
          let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
          Msg.blit_into m ~off:0 ~src:p;
          Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m)
        payloads);
  Engine.run ~until:(Time.ms 100) eng;
  let got = List.rev !received in
  Alcotest.(check int) "all delivered" (List.length payloads) (List.length got);
  List.iter2
    (fun want have ->
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes intact" (Bytes.length want))
        true (Bytes.equal want have))
    payloads got

let test_raw_atm_path () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref None in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  let payload = Bytes.init 3000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:3000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Driver.send a.Host.driver ~vci:raw_vci m);
  Engine.run ~until:(Time.ms 20) eng;
  match !got with
  | Some data -> Alcotest.(check bytes) "raw PDU intact" payload data
  | None -> Alcotest.fail "raw PDU not delivered"

let test_interrupt_coalescing_end_to_end () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let n = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr n;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 32 do
        Driver.send a.Host.driver ~vci:raw_vci (Msg.alloc a.Host.vs ~len:1024 ())
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "all PDUs" 32 !n;
  Alcotest.(check bool)
    (Printf.sprintf "%d interrupts for 32 PDUs" (Irq.count b.Host.irq))
    true
    (Irq.count b.Host.irq < 16)

let test_tx_queue_backpressure () =
  (* More PDUs than the 64-entry transmit queue: the driver must block on
     full and resume via the half-empty interrupt, losing nothing. *)
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let n = ref 0 in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      incr n;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 150 do
        Driver.send a.Host.driver ~vci:raw_vci
          (Msg.alloc a.Host.vs ~len:8192 ())
      done);
  Engine.run ~until:(Time.s 1) eng;
  Alcotest.(check int) "no loss under backpressure" 150 !n;
  Alcotest.(check bool) "driver actually stalled" true
    ((Driver.stats a.Host.driver).Driver.tx_full_stalls > 0)

let test_tx_completion_reclaims () =
  (* After transmission completes (tail advance), the driver unwires and
     frees message memory — nothing stays wired forever. *)
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      Msg.dispose msg);
  let wired_before = Osiris_mem.Vspace.wired_pages a.Host.vs in
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 10 do
        Driver.send a.Host.driver ~vci:raw_vci
          (Msg.alloc a.Host.vs ~len:8192 ())
      done);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "wired pages back to baseline" wired_before
    (Osiris_mem.Vspace.wired_pages a.Host.vs)

let test_overload_recovers () =
  (* Offered load far beyond capacity: the board drops, the host survives,
     and when the storm ends the system still works. *)
  let eng = Engine.create () in
  let host =
    Host.create eng Machine.ds5000_200 ~addr:0x0a000002l Host.default_config
  in
  let payload = Bytes.make 4096 'x' in
  let dg = Udp.datagram_image ~src_port:9 ~dst_port:7 ~checksum:false payload in
  let frags =
    List.concat_map
      (fun id ->
        Ip.fragment_images ~id Host.default_config.Host.ip ~page_size:4096
          ~src:0x0a000001l ~dst:0x0a000002l ~proto:Udp.protocol_number dg)
      [ 1; 2; 3; 4; 5 ]
  in
  Board.start_fictitious_source host.Host.board
    ~pdus:(List.map (fun f -> (Host.ip_vci host, f)) frags)
    ();
  Host.start host;
  let n = ref 0 in
  Host.new_udp_test_receiver host ~port:7 ~on_msg:(fun ~len:_ -> incr n);
  Engine.run ~until:(Time.ms 50) eng;
  let mid = !n in
  Alcotest.(check bool) "delivering under overload" true (mid > 0);
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check bool) "still delivering (no buffer leak)" true (!n > mid)

let test_spinlock_configuration_works () =
  let cfg =
    {
      Host.default_config with
      board =
        { Board.default_config with
          Board.locking = Osiris_board.Desc_queue.Spin_lock };
    }
  in
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
  let b =
    Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { cfg with seed = 43 }
  in
  ignore (Network.connect eng a b);
  let got = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr got;
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 5 do
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
          (Msg.alloc a.Host.vs ~len:2000 ())
      done);
  Engine.run ~until:(Time.ms 50) eng;
  Alcotest.(check int) "spin-locked queues still correct" 5 !got

let test_link_corruption_dropped_not_delivered () =
  let link =
    { Osiris_link.Atm_link.default_config with
      Osiris_link.Atm_link.corrupt_prob = 0.002 }
  in
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l
      Host.default_config in
  let b = Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { Host.default_config with seed = 43 } in
  ignore (Network.connect eng ~link a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let good = ref 0 in
  let template = Bytes.init 8192 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      (* Every delivered PDU must be intact: corrupted ones die at the CRC. *)
      if Bytes.equal (Msg.read_all msg) template then incr good
      else Alcotest.fail "corrupted PDU delivered";
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 30 do
        let m = Msg.alloc a.Host.vs ~len:8192 () in
        Msg.blit_into m ~off:0 ~src:template;
        Driver.send a.Host.driver ~vci:raw_vci m
      done);
  Engine.run ~until:(Time.ms 200) eng;
  let drops = (Driver.stats b.Host.driver).Driver.crc_drops in
  Alcotest.(check bool)
    (Printf.sprintf "some corrupted (%d dropped), some clean (%d)" drops !good)
    true
    (drops > 0 && !good > 0 && !good + drops = 30)

(* Randomized end-to-end integrity: any mix of message sizes arrives
   intact and in order, under any seed. *)
let e2e_random_integrity =
  QCheck.Test.make ~name:"end-to-end: random messages intact & ordered"
    ~count:8
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(1 -- 6) (int_range 1 40_000)))
    (fun (seed, sizes) ->
      let cfg = { Host.default_config with seed = 100 + seed } in
      let eng = Engine.create () in
      let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
      let b =
        Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
          { cfg with seed = 200 + seed }
      in
      ignore (Network.connect eng a b);
      let got = ref [] in
      Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
          got := Msg.read_all msg :: !got;
          Msg.dispose msg);
      let payloads =
        List.mapi
          (fun i size ->
            Bytes.init size (fun j -> Char.chr ((j + (i * 17) + seed) land 0xff)))
          sizes
      in
      Process.spawn eng ~name:"tx" (fun () ->
          List.iter
            (fun p ->
              let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
              Msg.blit_into m ~off:0 ~src:p;
              Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m)
            payloads);
      Engine.run ~until:(Time.ms 200) eng;
      let got = List.rev !got in
      List.length got = List.length payloads
      && List.for_all2 Bytes.equal payloads got)

let test_snapshot () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg -> Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7
        (Msg.alloc a.Host.vs ~len:4096 ()));
  Engine.run ~until:(Time.ms 10) eng;
  let snap = Snapshot.take ~name:"B" b in
  Alcotest.(check int) "snapshot sees the PDU" 1
    snap.Snapshot.board.Board.pdus_received;
  let rendered = Format.asprintf "%a" Snapshot.pp snap in
  Alcotest.(check bool) "renders" true (String.length rendered > 100)

let test_full_cache_swap_policy () =
  (* Eager_full must deliver correctly (like the other policies). *)
  let cfg = { Host.default_config with invalidation = Driver.Eager_full } in
  let eng = Engine.create () in
  let a = Host.create eng Machine.ds5000_200 ~addr:0x0a000001l cfg in
  let b = Host.create eng Machine.ds5000_200 ~addr:0x0a000002l
      { cfg with seed = 43 } in
  ignore (Network.connect eng a b);
  let got = ref None in
  let payload = Bytes.init 5000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:5000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m);
  Engine.run ~until:(Time.ms 50) eng;
  (match !got with
  | Some data -> Alcotest.(check bytes) "intact under full swap" payload data
  | None -> Alcotest.fail "lost");
  Alcotest.(check bool) "cache did get flushed" true
    ((Osiris_cache.Data_cache.stats b.Host.cache)
       .Osiris_cache.Data_cache.invalidated_lines > 0)

let test_small_buffers_noncontiguous_pool () =
  (* Regression: with page-fragment buffers and [rx_buffer_size] smaller
     than a page, the buffer-count ratio rounded down to zero and the
     receive path wedged with an empty pool. *)
  let machine =
    { Machine.ds5000_200 with Machine.rx_buffer_size = 2048;
      rx_pool_buffers = 16 }
  in
  let cfg = { Host.default_config with Host.contiguous_buffers = false } in
  let eng = Engine.create () in
  let a = Host.create eng machine ~addr:0x0a000001l cfg in
  let b =
    Host.create eng machine ~addr:0x0a000002l { cfg with Host.seed = 43 }
  in
  Alcotest.(check bool) "pool stocked despite sub-page rx_buffer_size" true
    (Driver.pool_available b.Host.driver > 0);
  ignore (Network.connect eng a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref None in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Some (Msg.read_all msg);
      Msg.dispose msg);
  let payload = Bytes.init 6000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      let m = Msg.alloc a.Host.vs ~len:6000 () in
      Msg.blit_into m ~off:0 ~src:payload;
      Driver.send a.Host.driver ~vci:raw_vci m);
  Engine.run ~until:(Time.ms 50) eng;
  match !got with
  | Some data -> Alcotest.(check bytes) "delivered through fragments" payload data
  | None -> Alcotest.fail "receive path wedged (empty buffer pool)"

let test_long_descriptor_chains () =
  (* Regression for the receive thread's chain bookkeeping: a PDU spread
     over many small buffers (~25 descriptors each here) must reassemble
     intact, with the trailer read from the true last descriptor. *)
  let machine = { Machine.ds5000_200 with Machine.rx_buffer_size = 2048 } in
  let eng = Engine.create () in
  let a = Host.create eng machine ~addr:0x0a000001l Host.default_config in
  let b =
    Host.create eng machine ~addr:0x0a000002l
      { Host.default_config with Host.seed = 43 }
  in
  ignore (Network.connect eng a b);
  Board.bind_vci a.Host.board ~vci:raw_vci (Board.kernel_channel a.Host.board);
  Board.bind_vci b.Host.board ~vci:raw_vci (Board.kernel_channel b.Host.board);
  let got = ref [] in
  Demux.bind b.Host.demux ~vci:raw_vci ~name:"sink" (fun ~vci:_ msg ->
      got := Msg.read_all msg :: !got;
      Msg.dispose msg);
  let payloads =
    List.map
      (fun tag -> Bytes.init 50_000 (fun i -> Char.chr ((i * tag) land 0xff)))
      [ 3; 11 ]
  in
  Process.spawn eng ~name:"tx" (fun () ->
      List.iter
        (fun p ->
          let m = Msg.alloc a.Host.vs ~len:(Bytes.length p) () in
          Msg.blit_into m ~off:0 ~src:p;
          Driver.send a.Host.driver ~vci:raw_vci m;
          (* Pace the sends: with 2 KB buffers the receive processor has 8x
             the per-buffer work, and back-to-back 50 KB PDUs would overrun
             its cell FIFO — overload behavior, not what this test pins. *)
          Process.sleep eng (Time.ms 20))
        payloads);
  Engine.run ~until:(Time.s 1) eng;
  let got = List.rev !got in
  Alcotest.(check int) "both PDUs delivered" 2 (List.length got);
  List.iter2
    (fun want have ->
      Alcotest.(check bool) "long chain intact" true (Bytes.equal want have))
    payloads got

let test_machine_lookup () =
  Alcotest.(check bool) "by_name finds" true
    (Machine.by_name "dec 5000/200" <> None);
  Alcotest.(check bool) "unknown" true (Machine.by_name "vax" = None)

(* Bulk VC setup must be O(1) amortized: after the first circuit between
   a host pair, path discovery comes out of the topology's cache, so
   opening thousands of VCs costs thousands of table inserts — not
   thousands of graph traversals. Sys.time is a coarse guard here; the
   sharp assertion is the enumeration counter. *)
let test_bulk_vc_setup () =
  let _eng, topo = Network.star ~n:4 () in
  let recv = Network.host topo 0 in
  let baseline = Board.demux_vcs recv.Host.board in
  let t0 = Sys.time () in
  let n = 4096 in
  for i = 0 to n - 1 do
    let src = 1 + (i mod 3) in
    ignore (Network.open_vc topo ~src ~dst:0)
  done;
  let elapsed = Sys.time () -. t0 in
  let enums = Network.path_enumerations topo in
  if enums > 3 then
    Alcotest.failf "%d path enumerations for 3 (src,dst) pairs" enums;
  if elapsed > 5.0 then
    Alcotest.failf "opening %d VCs took %.1fs" n elapsed;
  (* Every VC is live at the receiving board. *)
  Alcotest.(check int) "receiver demux entries" n
    (Board.demux_vcs recv.Host.board - baseline)

(* The cell datapath's allocation budget, end to end: minor-heap words
   per delivered cell while two hosts move 20 UDP datagrams of 16 KB
   (hosts, links and buffer pools are built before counting starts). *)
let test_words_per_cell () =
  let eng, net = Network.pair () in
  let a = net.Network.a and b = net.Network.b in
  let delivered = ref 0 in
  Udp.bind b.Host.udp ~port:7 (fun ~src:_ ~src_port:_ msg ->
      incr delivered;
      Msg.dispose msg);
  let payload = Bytes.init (16 * 1024) (fun i -> Char.chr (i land 0xff)) in
  Process.spawn eng ~name:"tx" (fun () ->
      for _ = 1 to 20 do
        let m = Msg.alloc a.Host.vs ~len:(Bytes.length payload) () in
        Msg.blit_into m ~off:0 ~src:payload;
        Udp.output a.Host.udp ~dst:b.Host.addr ~src_port:9 ~dst_port:7 m
      done);
  let before = Gc.minor_words () in
  Engine.run ~until:(Time.ms 200) eng;
  let words = Gc.minor_words () -. before in
  let cells = (Board.stats b.Host.board).Board.cells_received in
  Alcotest.(check int) "all delivered" 20 !delivered;
  let per_cell = words /. float_of_int cells in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per delivered cell (bound 60)" per_cell)
    true (per_cell < 60.)

let suite =
  [
    Alcotest.test_case "udp end-to-end integrity" `Quick
      test_udp_end_to_end_integrity;
    Alcotest.test_case "raw ATM path" `Quick test_raw_atm_path;
    Alcotest.test_case "interrupt coalescing end-to-end" `Quick
      test_interrupt_coalescing_end_to_end;
    Alcotest.test_case "transmit-queue backpressure" `Quick
      test_tx_queue_backpressure;
    Alcotest.test_case "transmit completion reclaims" `Quick
      test_tx_completion_reclaims;
    Alcotest.test_case "overload does not wedge the host" `Quick
      test_overload_recovers;
    Alcotest.test_case "spin-lock configuration" `Quick
      test_spinlock_configuration_works;
    Alcotest.test_case "corrupted cells never delivered" `Quick
      test_link_corruption_dropped_not_delivered;
    Alcotest.test_case "sub-page buffers stock the pool" `Quick
      test_small_buffers_noncontiguous_pool;
    Alcotest.test_case "long descriptor chains reassemble" `Quick
      test_long_descriptor_chains;
    Alcotest.test_case "machine profiles" `Quick test_machine_lookup;
    QCheck_alcotest.to_alcotest e2e_random_integrity;
    Alcotest.test_case "snapshot" `Quick test_snapshot;
    Alcotest.test_case "full-cache-swap policy" `Quick
      test_full_cache_swap_policy;
    Alcotest.test_case "bulk VC setup is O(1) amortized" `Quick
      test_bulk_vc_setup;
    Alcotest.test_case "cell datapath words per cell" `Quick
      test_words_per_cell;
  ]
