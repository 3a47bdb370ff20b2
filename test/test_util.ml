(* Tests for checksums, CRC, RNG and statistics. *)

open Osiris_util

let bytes_gen = QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 200)))

let checksum_verify_roundtrip =
  QCheck.Test.make ~name:"checksum: computed region verifies" ~count:300
    QCheck.(map Bytes.of_string (string_of_size Gen.(2 -- 200)))
    (fun b ->
      (* Place a checksum over the whole region in its first two bytes. *)
      Bytes.set b 0 '\000';
      Bytes.set b 1 '\000';
      let c = Checksum.compute b ~off:0 ~len:(Bytes.length b) in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xff));
      Checksum.verify b ~off:0 ~len:(Bytes.length b))

let checksum_detects_corruption =
  QCheck.Test.make ~name:"checksum: single-byte corruption detected"
    ~count:300
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(4 -- 100))) small_nat)
    (fun (b, i) ->
      Bytes.set b 0 '\000';
      Bytes.set b 1 '\000';
      let c = Checksum.compute b ~off:0 ~len:(Bytes.length b) in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xff));
      let i = 2 + (i mod (Bytes.length b - 2)) in
      let orig = Char.code (Bytes.get b i) in
      (* One's-complement arithmetic cannot distinguish 0x00 from 0xff in
         some positions; flip to a guaranteed-different class. *)
      let flipped = orig lxor 0x55 in
      QCheck.assume (flipped <> orig && not (orig = 0x00 && flipped = 0xff)
                     && not (orig = 0xff && flipped = 0x00));
      Bytes.set b i (Char.chr flipped);
      not (Checksum.verify b ~off:0 ~len:(Bytes.length b)))

let checksum_combine =
  QCheck.Test.make ~name:"checksum: split = whole" ~count:300
    QCheck.(pair bytes_gen small_nat)
    (fun (b, cut) ->
      let n = Bytes.length b in
      (* Split on an even boundary: one's-complement sums compose at
         16-bit granularity. *)
      let cut = if n < 2 then 0 else (cut mod (n / 2)) * 2 in
      let whole = Checksum.ones_complement_sum b ~off:0 ~len:n in
      let a = Checksum.ones_complement_sum b ~off:0 ~len:cut in
      let c = Checksum.ones_complement_sum b ~off:cut ~len:(n - cut) in
      Checksum.combine a c = whole)

let test_crc32_vector () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "known vector" 0xCBF43926l
    (Crc32.compute b ~off:0 ~len:9)

let crc32_incremental =
  QCheck.Test.make ~name:"crc32: incremental = one-shot" ~count:200
    QCheck.(pair bytes_gen small_nat)
    (fun (b, cut) ->
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let oneshot = Crc32.compute b ~off:0 ~len:n in
      let acc = Crc32.update Crc32.init b ~off:0 ~len:cut in
      let acc = Crc32.update acc b ~off:cut ~len:(n - cut) in
      Crc32.finalize acc = oneshot)

let crc32_detects_corruption =
  QCheck.Test.make ~name:"crc32: corruption detected" ~count:200
    QCheck.(pair (map Bytes.of_string (string_of_size Gen.(1 -- 100))) small_nat)
    (fun (b, i) ->
      let n = Bytes.length b in
      let before = Crc32.compute b ~off:0 ~len:n in
      let i = i mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Crc32.compute b ~off:0 ~len:n <> before)

(* The bytewise table-driven CRC-32 the slice-by-8 kernel replaced, kept
   here as the reference it must match bit for bit. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let ref_update crc b ~off ~len =
  let c = ref crc in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i))))
           0xFFl)
    in
    c := Int32.logxor ref_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  !c

(* Offsets 0-7 put the first 8-byte word at every alignment; lengths up to
   100 cover the bytewise tail on both sides, and 16 KB the long run. *)
let crc32_matches_bytewise =
  let gen =
    QCheck.Gen.(
      let* off = 0 -- 7 in
      let* len = frequency [ (9, 0 -- 100); (1, return 16384) ] in
      let* seed = nat in
      let* cuts = list_size (0 -- 4) (0 -- len) in
      return (off, len, seed, List.sort compare cuts))
  in
  QCheck.Test.make ~name:"crc32: slice-by-8 = bytewise reference" ~count:300
    (QCheck.make
       ~print:(fun (off, len, seed, cuts) ->
         Printf.sprintf "off=%d len=%d seed=%d cuts=[%s]" off len seed
           (String.concat ";" (List.map string_of_int cuts)))
       gen)
    (fun (off, len, seed, cuts) ->
      let r = Rng.create ~seed in
      let b = Bytes.init (off + len + 5) (fun _ -> Char.chr (Rng.int r 256)) in
      (* [update] fed the region in pieces, split at [cuts] *)
      let crc, last =
        List.fold_left
          (fun (crc, from) cut ->
            (Crc32.update crc b ~off:(off + from) ~len:(cut - from), cut))
          (Crc32.init, 0) cuts
      in
      let crc = Crc32.update crc b ~off:(off + last) ~len:(len - last) in
      crc = ref_update Crc32.init b ~off ~len
      && Crc32.compute b ~off ~len
         = Int32.logxor (ref_update Crc32.init b ~off ~len) 0xFFFFFFFFl)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Per-cell draws on the link allocate nothing. A [float] result crossing
   a module boundary is boxed by the caller (2 words) unless the call is
   inlined, which the dev profile's [-opaque] prevents; the draw itself
   allocates nothing, and [chance], which returns a bool, nothing at
   all. *)
let test_rng_no_alloc () =
  let r = Rng.create ~seed:11 in
  let hits = ref 0 in
  let n = 10_000 in
  let per_draw f =
    minor_words (fun () -> for _ = 1 to n do f () done) /. float_of_int n
  in
  let int_bool () =
    if Rng.bool r then incr hits;
    hits := !hits + Rng.int r 53;
    if Rng.chance r 0.25 then incr hits
  in
  int_bool ();
  Alcotest.(check (float 0.)) "int, bool and chance: words per draw" 0.
    (per_draw int_bool);
  let float_draw () = if Rng.float r 1.0 < 0.5 then incr hits in
  Alcotest.(check bool) "float: at most its result box" true
    (per_draw float_draw <= 2.)

(* No allocation per byte: a 16 KB update costs what a one-cell update
   costs, at most the [int32] result's box (3 words; none when the call is
   inlined). *)
let test_crc32_no_alloc () =
  let b = Bytes.init 16384 (fun i -> Char.chr (i * 31 land 0xff)) in
  let acc = ref 0 in
  let run len () =
    acc := !acc lxor Int32.to_int (Crc32.update Crc32.init b ~off:0 ~len)
  in
  run 16384 ();
  let words = minor_words (run 16384) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for a 16 KB update (%.0f)" words)
    true
    (words <= 3. && words = minor_words (run Osiris_atm.Cell.data_size))

let test_rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.float r 3.0 in
    Alcotest.(check bool) "float range" true (v >= 0.0 && v < 3.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  Alcotest.(check bool) "distinct streams" true (a <> b)

let test_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_stats_reference () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance (sample)" (32.0 /. 7.0)
    (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:100 in
  for i = 1 to 100 do
    Stats.Histogram.add h (float_of_int i -. 0.5)
  done;
  Alcotest.(check (float 1.01)) "median" 50.0
    (Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 1.01)) "p99" 99.0
    (Stats.Histogram.percentile h 99.0)

let test_units () =
  Alcotest.(check (float 1e-6)) "mbps" 8.0
    (Units.mbps ~bytes_count:1_000_000 ~seconds:1.0)

let suite =
  [
    QCheck_alcotest.to_alcotest checksum_verify_roundtrip;
    QCheck_alcotest.to_alcotest checksum_detects_corruption;
    QCheck_alcotest.to_alcotest checksum_combine;
    Alcotest.test_case "crc32: known vector" `Quick test_crc32_vector;
    QCheck_alcotest.to_alcotest crc32_incremental;
    QCheck_alcotest.to_alcotest crc32_detects_corruption;
    QCheck_alcotest.to_alcotest crc32_matches_bytewise;
    Alcotest.test_case "crc32: no allocation per byte" `Quick
      test_crc32_no_alloc;
    Alcotest.test_case "rng: draws allocate nothing" `Quick test_rng_no_alloc;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick
      test_shuffle_permutation;
    Alcotest.test_case "stats: reference values" `Quick test_stats_reference;
    Alcotest.test_case "stats: histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "units: mbps" `Quick test_units;
  ]
