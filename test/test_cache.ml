(* Tests for the data-cache model: hits, misses, write-through, stale data
   under software coherence, hardware update, invalidation. *)

open Osiris_sim
module Cache = Osiris_cache.Data_cache
module Phys_mem = Osiris_mem.Phys_mem
module Tc = Osiris_bus.Turbochannel

let setup ?(coherence = Cache.Software) () =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:4096 () in
  let bus = Tc.create eng (Tc.turbochannel_config Tc.Shared_bus) in
  let cache =
    Cache.create eng ~mem ~bus
      {
        Cache.size = 64 * 1024;
        line_size = 16;
        coherence;
        cpu_hz = 25_000_000;
        hit_cycles_per_word = 1;
        fill_overhead_cycles = 13;
        invalidate_cycles_per_word = 1;
      }
  in
  (eng, mem, cache)

let in_process eng f =
  let r = ref None in
  Process.spawn eng ~name:"t" (fun () -> r := Some (f ()));
  Engine.run eng;
  Option.get !r

let test_read_returns_memory () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:512 ~len:64 'Q';
      let b = Cache.read cache ~addr:512 ~len:64 in
      Alcotest.(check bytes) "fill read" (Bytes.make 64 'Q') b)

let test_hit_vs_miss_cost () =
  let eng, _, cache = setup () in
  in_process eng (fun () ->
      let t0 = Engine.now eng in
      ignore (Cache.read cache ~addr:0 ~len:64);
      let t_miss = Engine.now eng - t0 in
      let t1 = Engine.now eng in
      ignore (Cache.read cache ~addr:0 ~len:64);
      let t_hit = Engine.now eng - t1 in
      Alcotest.(check bool) "miss costs more" true (t_miss > 2 * t_hit);
      let st = Cache.stats cache in
      Alcotest.(check int) "misses" 4 st.Cache.misses;
      Alcotest.(check int) "hits" 4 st.Cache.hits)

let test_stale_data_software () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:64 'A';
      ignore (Cache.read cache ~addr:0 ~len:64);
      (* DMA overwrites memory; the cache is not told to update. *)
      Phys_mem.fill mem ~addr:0 ~len:64 'B';
      Cache.dma_wrote cache ~addr:0 ~len:64;
      let b = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "stale bytes returned" (Bytes.make 64 'A') b;
      let st = Cache.stats cache in
      Alcotest.(check bool) "overlaps counted" true (st.Cache.stale_overlaps > 0);
      Alcotest.(check bool) "stale read counted" true (st.Cache.stale_reads > 0);
      (* Invalidate, then the truth is visible. *)
      Cache.invalidate cache ~addr:0 ~len:64;
      let b2 = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "fresh after invalidate" (Bytes.make 64 'B') b2)

let test_hardware_update () =
  let eng, mem, cache = setup ~coherence:Cache.Hardware_update () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:64 'A';
      ignore (Cache.read cache ~addr:0 ~len:64);
      Phys_mem.fill mem ~addr:0 ~len:64 'B';
      Cache.dma_wrote cache ~addr:0 ~len:64;
      let b = Cache.read cache ~addr:0 ~len:64 in
      Alcotest.(check bytes) "coherent" (Bytes.make 64 'B') b;
      Alcotest.(check int) "no stale reads"
        0 (Cache.stats cache).Cache.stale_reads)

let test_hardware_update_allocates () =
  (* The 3000/600's L2 takes DMA data in: the first CPU read hits. *)
  let eng, mem, cache = setup ~coherence:Cache.Hardware_update () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:1024 ~len:16 'Z';
      Cache.dma_wrote cache ~addr:1024 ~len:16;
      Alcotest.(check bool) "resident after DMA" true
        (Cache.resident cache ~addr:1024))

let test_write_through () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      ignore (Cache.read cache ~addr:0 ~len:16);
      Cache.write cache ~addr:0 ~src:(Bytes.make 16 'W');
      (* memory updated immediately *)
      Alcotest.(check bytes) "memory updated" (Bytes.make 16 'W')
        (Phys_mem.bytes_of_region mem ~addr:0 ~len:16);
      (* resident line updated too: a read hits and agrees *)
      let b = Cache.read cache ~addr:0 ~len:16 in
      Alcotest.(check bytes) "cache coherent with own write"
        (Bytes.make 16 'W') b)

let test_invalidation_cost () =
  let eng, _, cache = setup () in
  in_process eng (fun () ->
      let t0 = Engine.now eng in
      (* 16 KB = 4096 words at 1 cycle each at 25 MHz = 163.84 us *)
      Cache.invalidate cache ~addr:0 ~len:(16 * 1024);
      let dt = Engine.now eng - t0 in
      Alcotest.(check int) "one cycle per word" 163_840 dt)

let test_direct_mapped_eviction () =
  let eng, mem, cache = setup () in
  in_process eng (fun () ->
      Phys_mem.fill mem ~addr:0 ~len:16 'A';
      ignore (Cache.read cache ~addr:0 ~len:16);
      Alcotest.(check bool) "resident" true (Cache.resident cache ~addr:0);
      (* Same index, different tag: 64 KB away. *)
      ignore (Cache.read cache ~addr:(64 * 1024) ~len:16);
      Alcotest.(check bool) "evicted by alias" false
        (Cache.resident cache ~addr:0))

(* ------------------------------------------------------------------ *)
(* Differential test against the record-per-line reference model: the
   same random operation sequence, run on two identical machines, must
   read the same bytes, charge the same simulated time, leave the same
   lines resident and count the same stats. Operations fall in the first
   4 KB of memory, so a 1 KB cache sees both hits and aliasing misses. *)

module Ref = Ref_data_cache

type op =
  | Read of int * int
  | Write of int * int
  | Dma of int * int
  | Invalidate of int * int
  | Invalidate_all
  | Pressure of int

let mem_size = 64 * 1024

let op_gen =
  let open QCheck.Gen in
  let range = pair (int_bound (4096 - 160)) (int_bound 160) in
  frequency
    [
      (6, map (fun (a, l) -> Read (a, l)) range);
      (3, map (fun (a, l) -> Write (a, l)) range);
      (3, map (fun (a, l) -> Dma (a, l)) range);
      (2, map (fun (a, l) -> Invalidate (a, l)) range);
      (1, return Invalidate_all);
      (1, map (fun n -> Pressure n) (int_bound 80));
    ]

let show_op = function
  | Read (a, l) -> Printf.sprintf "read %d+%d" a l
  | Write (a, l) -> Printf.sprintf "write %d+%d" a l
  | Dma (a, l) -> Printf.sprintf "dma %d+%d" a l
  | Invalidate (a, l) -> Printf.sprintf "invalidate %d+%d" a l
  | Invalidate_all -> "invalidate_all"
  | Pressure n -> Printf.sprintf "pressure %d" n

(* The cache operations one run needs, over either implementation. *)
type impl = {
  read : addr:int -> len:int -> Bytes.t;
  write : addr:int -> src:Bytes.t -> unit;
  dma_wrote : addr:int -> len:int -> unit;
  invalidate : addr:int -> len:int -> unit;
  invalidate_all : unit -> unit;
  pressure : lines:int -> unit;
  resident : addr:int -> bool;
  stats : unit -> Cache.stats;
}

let small_cfg coherence =
  {
    Cache.size = 1024;
    line_size = 16;
    coherence;
    cpu_hz = 25_000_000;
    hit_cycles_per_word = 1;
    fill_overhead_cycles = 13;
    invalidate_cycles_per_word = 1;
  }

let pattern k len = Bytes.init len (fun j -> Char.chr (((k * 31) + j) land 255))

(* Run [ops] on a fresh machine with the cache [make] builds; the log
   holds every read's bytes, the clock after each operation, the
   residency of the lines the operation touched and the final stats. *)
let run_ops coherence make ops =
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:mem_size ~page_size:4096 () in
  Phys_mem.blit_from_bytes mem ~src:(pattern 1 mem_size) ~src_off:0 ~dst:0
    ~len:mem_size;
  let bus = Tc.create eng (Tc.turbochannel_config Tc.Shared_bus) in
  let c = make eng mem bus (small_cfg coherence) in
  let log = Buffer.create 4096 in
  in_process eng (fun () ->
      List.iteri
        (fun k op ->
          (match op with
          | Read (addr, len) ->
              Buffer.add_bytes log (c.read ~addr ~len)
          | Write (addr, len) -> c.write ~addr ~src:(pattern k len)
          | Dma (addr, len) ->
              Phys_mem.blit_from_bytes mem ~src:(pattern (k + 7) len)
                ~src_off:0 ~dst:addr ~len;
              c.dma_wrote ~addr ~len
          | Invalidate (addr, len) -> c.invalidate ~addr ~len
          | Invalidate_all -> c.invalidate_all ()
          | Pressure lines -> c.pressure ~lines);
          let addr =
            match op with
            | Read (a, _) | Write (a, _) | Dma (a, _) | Invalidate (a, _) -> a
            | Invalidate_all | Pressure _ -> 16 * k
          in
          Buffer.add_string log
            (Printf.sprintf "|%s @%d r=%b,%b|" (show_op op) (Engine.now eng)
               (c.resident ~addr)
               (c.resident ~addr:(addr + 100))))
        ops);
  let st = c.stats () in
  Buffer.add_string log
    (Printf.sprintf "end@%d hits=%d misses=%d inval=%d overlaps=%d stale=%d"
       (Engine.now eng) st.Cache.hits st.misses st.invalidated_lines
       st.stale_overlaps st.stale_reads);
  Buffer.contents log

let flat eng mem bus cfg =
  let c = Cache.create eng ~mem ~bus cfg in
  {
    read = Cache.read c;
    write = Cache.write c;
    dma_wrote = Cache.dma_wrote c;
    invalidate = Cache.invalidate c;
    invalidate_all = (fun () -> Cache.invalidate_all c);
    pressure = Cache.pressure c;
    resident = Cache.resident c;
    stats = (fun () -> Cache.stats c);
  }

let reference eng mem bus cfg =
  let c = Ref.create eng ~mem ~bus cfg in
  {
    read = Ref.read c;
    write = Ref.write c;
    dma_wrote = Ref.dma_wrote c;
    invalidate = Ref.invalidate c;
    invalidate_all = (fun () -> Ref.invalidate_all c);
    pressure = Ref.pressure c;
    resident = Ref.resident c;
    stats = (fun () -> Ref.stats c);
  }

let differential_prop name coherence =
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let want = run_ops coherence reference ops in
      let got = run_ops coherence flat ops in
      want = got
      || QCheck.Test.fail_reportf "flat cache diverged:\n%s\nvs reference:\n%s"
           got want)

let differential_software =
  differential_prop "flat cache = reference model (software coherence)"
    Cache.Software

let differential_hardware =
  differential_prop "flat cache = reference model (hardware update)"
    Cache.Hardware_update

(* The 3000/600's 2 MB cache is one tag word per line plus one unscanned
   byte buffer: no per-line records or buffers. *)
let test_flat_layout_words () =
  let cfg = Osiris_core.Machine.dec3000_600.Osiris_core.Machine.cache in
  let eng = Engine.create () in
  let mem = Phys_mem.create ~size:(1 lsl 20) ~page_size:8192 () in
  let bus = Tc.create eng (Tc.turbochannel_config Tc.Shared_bus) in
  let nlines = cfg.Cache.size / cfg.Cache.line_size in
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let c = Cache.create eng ~mem ~bus cfg in
  let words = int_of_float ((Gc.allocated_bytes () -. b0) /. 8.) in
  ignore (Sys.opaque_identity c);
  let bound = nlines + (cfg.Cache.size / 8) + 256 in
  Alcotest.(check bool)
    (Printf.sprintf "%d lines in %d words (bound %d)" nlines words bound)
    true (words <= bound)

let suite =
  [
    Alcotest.test_case "read returns memory" `Quick test_read_returns_memory;
    Alcotest.test_case "hit vs miss cost" `Quick test_hit_vs_miss_cost;
    Alcotest.test_case "stale data under software coherence" `Quick
      test_stale_data_software;
    Alcotest.test_case "hardware update mode" `Quick test_hardware_update;
    Alcotest.test_case "hardware update allocates" `Quick
      test_hardware_update_allocates;
    Alcotest.test_case "write-through" `Quick test_write_through;
    Alcotest.test_case "invalidation cost (1 cycle/word)" `Quick
      test_invalidation_cost;
    Alcotest.test_case "direct-mapped eviction" `Quick
      test_direct_mapped_eviction;
    QCheck_alcotest.to_alcotest differential_software;
    QCheck_alcotest.to_alcotest differential_hardware;
    Alcotest.test_case "flat layout: tags plus one buffer" `Quick
      test_flat_layout_words;
  ]
