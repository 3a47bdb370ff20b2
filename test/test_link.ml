(* Tests for the striped physical link: per-link FIFO order, skew-class
   reordering, serialization rate, error injection. *)

open Osiris_sim
module Atm_link = Osiris_link.Atm_link
module Cell = Osiris_atm.Cell
module Sar = Osiris_atm.Sar
module Rng = Osiris_util.Rng

let cells_of_pdu ?(n = 400) ?(nlinks = 4) () =
  Sar.segment ~vci:3 ~nlinks (Bytes.init n (fun i -> Char.chr (i land 0xff)))

let collect eng link n =
  let out = ref [] in
  Process.spawn eng ~name:"rx" (fun () ->
      for _ = 1 to n do
        out := Atm_link.recv link :: !out
      done);
  out

let test_no_skew_in_order () =
  let eng = Engine.create () in
  let link =
    Atm_link.create eng (Rng.create ~seed:1) Atm_link.default_config
  in
  let cells = cells_of_pdu () in
  let out = collect eng link (List.length cells) in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  Engine.run eng;
  let seqs = List.map (fun (_, c) -> Cell.seq c) (List.rev !out) in
  Alcotest.(check (list int)) "arrival order = send order"
    (List.map (fun (c : Cell.t) -> Cell.seq c) cells)
    seqs

let test_skew_reorders_across_links_only () =
  let eng = Engine.create () in
  let cfg =
    {
      Atm_link.default_config with
      Atm_link.skew = [| 0; 8000; 16000; 24000 |];
    }
  in
  let link = Atm_link.create eng (Rng.create ~seed:1) cfg in
  let cells = cells_of_pdu () in
  let out = collect eng link (List.length cells) in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  Engine.run eng;
  let arrivals = List.rev !out in
  (* Global order is perturbed... *)
  Alcotest.(check bool) "reordering observed" true
    ((Atm_link.stats link).Atm_link.reordered > 0);
  (* ...but each link's sub-stream is still FIFO. *)
  for l = 0 to 3 do
    let seqs =
      List.filter_map
        (fun (link', c) -> if link' = l then Some (Cell.seq c) else None)
        arrivals
    in
    Alcotest.(check (list int))
      (Printf.sprintf "link %d FIFO" l)
      (List.sort compare seqs) seqs
  done

let test_aggregate_rate () =
  (* 4 x 155.52 Mb/s: 1000 cells of 53 bytes take ~1000/4 cell times. *)
  let eng = Engine.create () in
  let link =
    Atm_link.create eng (Rng.create ~seed:1)
      { Atm_link.default_config with Atm_link.rx_fifo_cells = 2000 }
  in
  let pdu = Bytes.make 10000 'x' in
  let cells = Sar.segment ~vci:3 ~nlinks:4 pdu in
  let ncells = List.length cells in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  Engine.run eng;
  (* Serialization finished; expected: ceil(n/4) cell times + pipeline. *)
  let cell_time = 53 * 8 * 1_000_000_000 / 155_520_000 in
  let expected = (((ncells + 3) / 4) + 2) * cell_time + 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "duration %d <= %d" (Engine.now eng) expected)
    true
    (Engine.now eng <= expected);
  Alcotest.(check int) "oc12 aggregate"
    516
    (int_of_float (Atm_link.oc12_aggregate Atm_link.default_config))

let test_fifo_overflow_drops () =
  let eng = Engine.create () in
  let cfg = { Atm_link.default_config with Atm_link.rx_fifo_cells = 4 } in
  let link = Atm_link.create eng (Rng.create ~seed:1) cfg in
  let cells = cells_of_pdu ~n:4000 () in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  (* no receiver: the 4-cell FIFO overflows *)
  Engine.run eng;
  let st = Atm_link.stats link in
  Alcotest.(check bool) "drops counted" true (st.Atm_link.dropped_fifo > 0);
  Alcotest.(check int) "conservation" (Atm_link.offered link)
    (List.fold_left (fun a (_, n) -> a + n) 0 (Atm_link.conservation link))

let test_corruption_injection () =
  let eng = Engine.create () in
  let cfg = { Atm_link.default_config with Atm_link.corrupt_prob = 1.0 } in
  let link = Atm_link.create eng (Rng.create ~seed:1) cfg in
  let cells = cells_of_pdu ~n:100 () in
  let out = collect eng link (List.length cells) in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  Engine.run eng;
  Alcotest.(check int) "all corrupted"
    (List.length cells)
    (Atm_link.stats link).Atm_link.corrupted;
  (* Corruption touches payload bytes, never the header fields. *)
  List.iter
    (fun (_, (c : Cell.t)) ->
      Alcotest.(check int) "vci intact" 3 (Cell.vci c))
    !out

let test_drop_injection () =
  let eng = Engine.create () in
  let cfg = { Atm_link.default_config with Atm_link.drop_prob = 0.5 } in
  let link = Atm_link.create eng (Rng.create ~seed:4) cfg in
  let cells = cells_of_pdu ~n:4000 () in
  Process.spawn eng ~name:"tx" (fun () -> List.iter (Atm_link.send link) cells);
  Engine.run ~until:1_000_000_000 eng;
  let st = Atm_link.stats link in
  let frac =
    float_of_int st.Atm_link.dropped_net /. float_of_int st.Atm_link.cells_sent
  in
  Alcotest.(check bool)
    (Printf.sprintf "drop fraction %.2f near 0.5" frac)
    true
    (frac > 0.4 && frac < 0.6)

let suite =
  [
    Alcotest.test_case "no skew: global order" `Quick test_no_skew_in_order;
    Alcotest.test_case "skew: per-link FIFO only" `Quick
      test_skew_reorders_across_links_only;
    Alcotest.test_case "aggregate serialization rate" `Quick
      test_aggregate_rate;
    Alcotest.test_case "receive FIFO overflow" `Quick test_fifo_overflow_drops;
    Alcotest.test_case "corruption injection" `Quick test_corruption_injection;
    Alcotest.test_case "drop injection" `Quick test_drop_injection;
  ]
