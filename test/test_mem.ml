(* Tests for physical memory, address spaces and physical buffers. *)

open Osiris_mem
module Rng = Osiris_util.Rng

let mk_mem ?scramble () =
  Phys_mem.create ?scramble ~size:(1 lsl 20) ~page_size:4096 ()

let test_alloc_free_cycle () =
  let mem = mk_mem () in
  let n = Phys_mem.free_frames mem in
  let a = Phys_mem.alloc_frame mem in
  let b = Phys_mem.alloc_frame mem in
  Alcotest.(check bool) "distinct frames" true (a <> b);
  Alcotest.(check int) "two allocated" (n - 2) (Phys_mem.free_frames mem);
  Phys_mem.free_frame mem a;
  Phys_mem.free_frame mem b;
  Alcotest.(check int) "all returned" n (Phys_mem.free_frames mem)

let test_double_free_rejected () =
  let mem = mk_mem () in
  let a = Phys_mem.alloc_frame mem in
  Phys_mem.free_frame mem a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: double free") (fun () ->
      Phys_mem.free_frame mem a)

let test_exhaustion () =
  let mem = Phys_mem.create ~size:(4 * 4096) ~page_size:4096 () in
  for _ = 1 to 4 do
    ignore (Phys_mem.alloc_frame mem)
  done;
  Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
      ignore (Phys_mem.alloc_frame mem))

let test_contiguous_alloc () =
  let mem = mk_mem () in
  match Phys_mem.alloc_contiguous mem ~nframes:4 with
  | None -> Alcotest.fail "empty memory must satisfy contiguous alloc"
  | Some base ->
      Alcotest.(check int) "page aligned" 0 (base mod 4096);
      (* The run must really be allocated: freeing each page works once. *)
      for i = 0 to 3 do
        Phys_mem.free_frame mem (base + (i * 4096))
      done

let test_rw_roundtrip () =
  let mem = mk_mem () in
  Phys_mem.write_u32 mem 100 0xDEADBEEFl;
  Alcotest.(check int32) "u32 roundtrip" 0xDEADBEEFl (Phys_mem.read_u32 mem 100);
  Phys_mem.write_byte mem 200 0xAB;
  Alcotest.(check int) "byte roundtrip" 0xAB (Phys_mem.read_byte mem 200)

let test_bounds_checked () =
  let mem = mk_mem () in
  Alcotest.(check bool) "oob read raises" true
    (try
       ignore (Phys_mem.read_byte mem (1 lsl 20));
       false
     with Invalid_argument _ -> true)

(* Pbuf properties. *)

let pbuf_split_preserves =
  QCheck.Test.make ~name:"pbuf: split preserves extent" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 2 5000))
    (fun (addr, len) ->
      let b = Pbuf.v ~addr ~len in
      let at = 1 + (addr mod (len - 1)) in
      let x, y = Pbuf.split b ~at in
      x.Pbuf.addr = addr && x.Pbuf.len = at
      && y.Pbuf.addr = addr + at
      && x.Pbuf.len + y.Pbuf.len = len)

let pbuf_coalesce_inverse_of_split =
  QCheck.Test.make ~name:"pbuf: coalesce undoes split" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 2 5000))
    (fun (addr, len) ->
      let b = Pbuf.v ~addr ~len in
      let at = 1 + (addr mod (len - 1)) in
      let x, y = Pbuf.split b ~at in
      match Pbuf.coalesce [ x; y ] with
      | [ c ] -> Pbuf.equal c b
      | _ -> false)

let test_coalesce_non_adjacent () =
  let a = Pbuf.v ~addr:0 ~len:10 and b = Pbuf.v ~addr:20 ~len:10 in
  Alcotest.(check int) "gap not merged" 2 (List.length (Pbuf.coalesce [ a; b ]))

(* Vspace: the §2.2 facts. *)

let test_vspace_translate_roundtrip () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:10000 in
  (* Write through virtual translation, read back. *)
  let pa = Vspace.translate vs (v + 5000) in
  Phys_mem.write_byte mem pa 0x7e;
  Alcotest.(check int) "translated access" 0x7e
    (Phys_mem.read_byte mem (Vspace.translate vs (v + 5000)))

let test_vspace_scrambled_fragmentation () =
  (* With a scrambled allocator, a 4-page region decomposes into (almost
     certainly) 4 physical buffers; paper §2.2. *)
  let mem = mk_mem ~scramble:(Rng.create ~seed:5) () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(4 * 4096) in
  let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
  Alcotest.(check bool) "fragmented" true (List.length bufs >= 3);
  Alcotest.(check int) "extent preserved" (4 * 4096) (Pbuf.total_len bufs)

let test_vspace_sequential_is_contiguous () =
  (* Without scrambling, frames come out in order and coalesce. *)
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(4 * 4096) in
  let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
  Alcotest.(check int) "one physical buffer" 1 (List.length bufs)

let test_vspace_contiguous_alloc () =
  let mem = mk_mem ~scramble:(Rng.create ~seed:5) () in
  let vs = Vspace.create mem in
  match Vspace.alloc_contiguous vs ~len:(4 * 4096) with
  | None -> Alcotest.fail "contiguous alloc must succeed on fresh memory"
  | Some v ->
      let bufs = Vspace.phys_buffers vs ~vaddr:v ~len:(4 * 4096) in
      Alcotest.(check int) "one physical buffer" 1 (List.length bufs)

let test_vspace_offset_alloc () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc_offset vs ~len:100 ~offset:256 in
  Alcotest.(check int) "offset honoured" 256 (v mod 4096)

let test_vspace_free_returns_frames () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let before = Phys_mem.free_frames mem in
  let v = Vspace.alloc vs ~len:(8 * 4096) in
  Alcotest.(check int) "frames taken" (before - 8) (Phys_mem.free_frames mem);
  Vspace.free vs v;
  Alcotest.(check int) "frames back" before (Phys_mem.free_frames mem)

let test_page_fault () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  Alcotest.(check bool) "unmapped faults" true
    (try
       ignore (Vspace.translate vs 12345);
       false
     with Vspace.Page_fault _ -> true)

let test_wiring_counts () =
  let mem = mk_mem () in
  let vs = Vspace.create mem in
  let v = Vspace.alloc vs ~len:(3 * 4096) in
  Vspace.wire vs ~vaddr:v ~len:(3 * 4096);
  Alcotest.(check int) "three wired" 3 (Vspace.wired_pages vs);
  Vspace.wire vs ~vaddr:v ~len:4096;
  Alcotest.(check int) "recount not double" 3 (Vspace.wired_pages vs);
  Vspace.unwire vs ~vaddr:v ~len:4096;
  Alcotest.(check bool) "still wired once" true (Vspace.is_wired vs ~vaddr:v);
  Vspace.unwire vs ~vaddr:v ~len:(3 * 4096);
  Alcotest.(check int) "all unwired" 0 (Vspace.wired_pages vs)

let test_sg_map_loads_accumulate () =
  let sg = Sg_map.create ~slots:16 ~page_size:4096 in
  ignore (Sg_map.program sg [ Pbuf.v ~addr:0 ~len:8192 ]);
  ignore (Sg_map.program sg [ Pbuf.v ~addr:16384 ~len:4096 ]);
  Alcotest.(check int) "loads accumulate across transfers" 3 (Sg_map.loads sg);
  Sg_map.clear sg;
  Alcotest.(check bool) "cleared map rejects lookups" true
    (try ignore (Sg_map.translate sg 0); false
     with Invalid_argument _ -> true)

let test_sg_map () =
  let sg = Sg_map.create ~slots:8 ~page_size:4096 in
  let bufs = [ Pbuf.v ~addr:40960 ~len:4096; Pbuf.v ~addr:8192 ~len:4096 ] in
  (match Sg_map.program sg bufs with
  | None -> Alcotest.fail "two buffers fit eight slots"
  | Some base ->
      Alcotest.(check int) "first page maps" 40960
        (Sg_map.translate sg (base + 0));
      Alcotest.(check int) "second page maps" (8192 + 100)
        (Sg_map.translate sg (base + 4096 + 100)));
  Alcotest.(check int) "loads counted" 2 (Sg_map.loads sg);
  let big = List.init 9 (fun i -> Pbuf.v ~addr:(i * 4096) ~len:4096) in
  Alcotest.(check bool) "overflow rejected" true (Sg_map.program sg big = None)

(* ------------------------------------------------------------------ *)
(* Sparse memory against a flat-[Bytes] model. [Flat] is the store the
   sparse one replaced: one [Bytes.t] of the full size, the same bounds
   check and message. Both run the same random operations, with addresses
   biased toward page edges; every result and every exception message must
   agree, and so must the whole contents at the end. *)

module Flat = struct
  let check data addr len =
    if addr < 0 || len < 0 || addr + len > Bytes.length data then
      invalid_arg
        (Printf.sprintf "Phys_mem: access [%#x,+%d) out of bounds" addr len)
end

type op =
  | W8 of int * int
  | W32 of int * int32
  | Put of int * string  (* blit_from_bytes *)
  | Move of int * int * int  (* blit ~src ~dst ~len *)
  | Fill of int * int * char
  | R8 of int
  | R32 of int
  | Get of int * int  (* blit_to_bytes and bytes_of_region *)
  | Eq of int * int * bool  (* region_equal; [true] flips one byte *)

let show_op = function
  | W8 (a, v) -> Printf.sprintf "W8(%d,%d)" a v
  | W32 (a, v) -> Printf.sprintf "W32(%d,%ld)" a v
  | Put (a, s) -> Printf.sprintf "Put(%d,%d)" a (String.length s)
  | Move (s, d, n) -> Printf.sprintf "Move(%d,%d,%d)" s d n
  | Fill (a, n, c) -> Printf.sprintf "Fill(%d,%d,%C)" a n c
  | R8 a -> Printf.sprintf "R8(%d)" a
  | R32 a -> Printf.sprintf "R32(%d)" a
  | Get (a, n) -> Printf.sprintf "Get(%d,%d)" a n
  | Eq (a, n, f) -> Printf.sprintf "Eq(%d,%d,%b)" a n f

let diff_page_size = 16
let diff_size = 6 * diff_page_size

let op_gen =
  let open QCheck.Gen in
  let ps = diff_page_size in
  let addr =
    frequency
      [
        (4, map2 (fun p d -> (p * ps) + d) (int_bound (diff_size / ps)) (-4 -- 4));
        (1, -2 -- (diff_size + 2));
      ]
  in
  let len = frequency [ (4, 0 -- ((2 * ps) + 5)); (1, -1 -- 3) ] in
  let chr = frequency [ (1, return '\000'); (3, char) ] in
  frequency
    [
      (3, map2 (fun a v -> W8 (a, v)) addr (0 -- 255));
      (3, map2 (fun a v -> W32 (a, Int32.of_int v)) addr int);
      (2, map2 (fun a s -> Put (a, s)) addr (string_size ~gen:char (0 -- (2 * ps))));
      (3, map3 (fun s d n -> Move (s, d, n)) addr addr len);
      (2, map3 (fun a n c -> Fill (a, n, c)) addr len chr);
      (2, map (fun a -> R8 a) addr);
      (2, map (fun a -> R32 a) addr);
      (2, map2 (fun a n -> Get (a, n)) addr len);
      (2, map3 (fun a n f -> Eq (a, n, f)) addr len bool);
    ]

(* One op on both stores; the observable outcome of each. *)
let run_op mem flat op =
  let outcome f =
    match f () with v -> Ok v | exception Invalid_argument m -> Error m
  in
  let both fm ff = (outcome fm, outcome ff) in
  match op with
  | W8 (a, v) ->
      both
        (fun () -> Phys_mem.write_byte mem a v; "")
        (fun () ->
          Flat.check flat a 1;
          Bytes.set flat a (Char.chr (v land 0xff));
          "")
  | W32 (a, v) ->
      both
        (fun () -> Phys_mem.write_u32 mem a v; "")
        (fun () -> Flat.check flat a 4; Bytes.set_int32_be flat a v; "")
  | Put (a, s) ->
      let src = Bytes.of_string s in
      let n = Bytes.length src in
      both
        (fun () ->
          Phys_mem.blit_from_bytes mem ~src ~src_off:0 ~dst:a ~len:n; "")
        (fun () -> Flat.check flat a n; Bytes.blit src 0 flat a n; "")
  | Move (s, d, n) ->
      both
        (fun () -> Phys_mem.blit mem ~src:s ~dst:d ~len:n; "")
        (fun () ->
          Flat.check flat s n;
          Flat.check flat d n;
          Bytes.blit flat s flat d n;
          "")
  | Fill (a, n, c) ->
      both
        (fun () -> Phys_mem.fill mem ~addr:a ~len:n c; "")
        (fun () -> Flat.check flat a n; Bytes.fill flat a n c; "")
  | R8 a ->
      both
        (fun () -> string_of_int (Phys_mem.read_byte mem a))
        (fun () -> Flat.check flat a 1; string_of_int (Bytes.get_uint8 flat a))
  | R32 a ->
      both
        (fun () -> Int32.to_string (Phys_mem.read_u32 mem a))
        (fun () ->
          Flat.check flat a 4;
          Int32.to_string (Bytes.get_int32_be flat a))
  | Get (a, n) ->
      both
        (fun () ->
          let region = Phys_mem.bytes_of_region mem ~addr:a ~len:n in
          let out = Bytes.make (n + 2) '?' in
          Phys_mem.blit_to_bytes mem ~src:a ~dst:out ~dst_off:1 ~len:n;
          Bytes.to_string region ^ "|" ^ Bytes.to_string out)
        (fun () ->
          Flat.check flat a n;
          let region = Bytes.sub flat a n in
          let out = Bytes.make (n + 2) '?' in
          Bytes.blit flat a out 1 n;
          Bytes.to_string region ^ "|" ^ Bytes.to_string out)
  | Eq (a, n, flip) ->
      (* the expected bytes come from the model, at offset 3 of a buffer *)
      let b = Bytes.make (max 0 n + 3) 'x' in
      if a >= 0 && n >= 0 && a + n <= diff_size then Bytes.blit flat a b 3 n;
      if flip && n > 0 then
        Bytes.set b (3 + (n / 2))
          (Char.chr (Char.code (Bytes.get b (3 + (n / 2))) lxor 0x40));
      both
        (fun () -> string_of_bool (Phys_mem.region_equal mem ~addr:a b ~off:3 ~len:n))
        (fun () -> Flat.check flat a n; string_of_bool (not (flip && n > 0)))

(* Frames of 24 bytes are stored as 8-byte pages (the largest power of two
   dividing the frame size), so both storage geometries are exercised. *)
let sparse_matches_flat =
  QCheck.Test.make ~name:"phys_mem: sparse store matches a flat model"
    ~count:500
    (QCheck.make
       ~print:(fun (ps, ops) ->
         Printf.sprintf "page_size %d: %s" ps
           (String.concat "; " (List.map show_op ops)))
       QCheck.Gen.(
         pair (oneofl [ diff_page_size; 24 ]) (list_size (1 -- 60) op_gen)))
    (fun (page_size, ops) ->
      let mem = Phys_mem.create ~size:diff_size ~page_size () in
      let flat = Bytes.make diff_size '\000' in
      List.iter
        (fun op ->
          let got, want = run_op mem flat op in
          if got <> want then
            QCheck.Test.fail_reportf "%s: sparse %s, flat %s" (show_op op)
              (match got with Ok v -> String.escaped v | Error m -> "raised " ^ m)
              (match want with Ok v -> String.escaped v | Error m -> "raised " ^ m))
        ops;
      Bytes.equal flat (Phys_mem.bytes_of_region mem ~addr:0 ~len:diff_size))

(* Reads of untouched memory return zeros, create no page and allocate
   nothing on the minor heap. *)
let test_untouched_reads_stay_untouched () =
  let mem = mk_mem () in
  let ps = Phys_mem.page_size mem in
  let zeros n = Bytes.make n '\000' in
  Alcotest.(check int) "fresh memory is not resident" 0
    (Phys_mem.resident_bytes mem);
  Alcotest.(check int) "nominal size" (1 lsl 20) (Phys_mem.size mem);
  Alcotest.(check int) "byte" 0 (Phys_mem.read_byte mem 12345);
  Alcotest.(check int32) "straddling u32" 0l (Phys_mem.read_u32 mem (ps - 2));
  let out = Bytes.make (3 * ps) 'x' in
  Phys_mem.blit_to_bytes mem ~src:(ps / 2) ~dst:out ~dst_off:0 ~len:(3 * ps);
  Alcotest.(check bytes) "blit_to_bytes" (zeros (3 * ps)) out;
  Alcotest.(check bytes) "bytes_of_region" (zeros 100)
    (Phys_mem.bytes_of_region mem ~addr:(5 * ps) ~len:100);
  Alcotest.(check bytes) "bytes_of_pbufs" (zeros 200)
    (Phys_mem.bytes_of_pbufs mem
       [ Pbuf.v ~addr:0 ~len:100; Pbuf.v ~addr:(7 * ps) ~len:100 ]);
  Phys_mem.fill mem ~addr:ps ~len:(4 * ps) '\000';
  Alcotest.(check bool) "region_equal against zeros" true
    (Phys_mem.region_equal mem ~addr:(ps - 8) (zeros (2 * ps)) ~off:0
       ~len:(2 * ps));
  Alcotest.(check int) "still nothing resident" 0
    (Phys_mem.resident_bytes mem);
  (* the read paths the cache runs per access allocate nothing *)
  let buf = Bytes.create 64 in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    ignore (Sys.opaque_identity (Phys_mem.read_byte mem (i * 97)));
    Phys_mem.blit_to_bytes mem ~src:((i * 61) + ps - 32) ~dst:buf ~dst_off:0
      ~len:64;
    ignore
      (Sys.opaque_identity
         (Phys_mem.region_equal mem ~addr:((i * 61) + ps - 32) buf ~off:0
            ~len:64))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "read paths allocation-free (%.0f words)" words)
    true (words < 16.);
  (* a write makes exactly its pages resident *)
  Phys_mem.write_u32 mem ((3 * ps) - 2) 0x01020304l;
  Alcotest.(check int) "straddling write touches two pages" (2 * ps)
    (Phys_mem.resident_bytes mem);
  Phys_mem.fill mem ~addr:(3 * ps) ~len:ps '\000';
  Alcotest.(check int) "zero fill of a touched page keeps it" (2 * ps)
    (Phys_mem.resident_bytes mem);
  Alcotest.(check int32) "straddling readback" 0x01020000l
    (Phys_mem.read_u32 mem ((3 * ps) - 2))

(* The free-frame stack hands out frames in exactly the order of the
   list allocator it replaced (scrambled start, LIFO reuse, contiguous
   runs cut out in place): [List_alloc] is that allocator. *)

module List_alloc = struct
  type t = {
    page_size : int;
    nframes : int;
    mutable free : int list;
    free_set : (int, unit) Hashtbl.t;
  }

  let create ~seed ~nframes ~page_size =
    let order = Array.init nframes (fun i -> i) in
    Rng.shuffle (Rng.create ~seed) order;
    let free = Array.to_list order in
    let free_set = Hashtbl.create nframes in
    List.iter (fun f -> Hashtbl.replace free_set f ()) free;
    { page_size; nframes; free; free_set }

  let alloc_frame t =
    match t.free with
    | [] -> raise Out_of_memory
    | f :: rest ->
        t.free <- rest;
        Hashtbl.remove t.free_set f;
        f * t.page_size

  let alloc_contiguous t ~nframes =
    let is_free f = Hashtbl.mem t.free_set f in
    let rec find base =
      if base + nframes > t.nframes then None
      else
        let rec run i = i = nframes || (is_free (base + i) && run (i + 1)) in
        if run 0 then Some base else find (base + 1)
    in
    match find 0 with
    | None -> None
    | Some base ->
        for i = base to base + nframes - 1 do
          Hashtbl.remove t.free_set i
        done;
        t.free <- List.filter (fun f -> f < base || f >= base + nframes) t.free;
        Some (base * t.page_size)

  let free_frame t addr =
    let f = addr / t.page_size in
    if Hashtbl.mem t.free_set f then
      invalid_arg "Phys_mem.free_frame: double free";
    Hashtbl.replace t.free_set f ();
    t.free <- f :: t.free
end

type alloc_op = Alloc | Contig of int | Free of int | Refree of int

let allocation_order_unchanged =
  QCheck.Test.make ~name:"phys_mem: allocation order matches the list allocator"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat " "
              (List.map
                 (function
                   | Alloc -> "A"
                   | Contig n -> Printf.sprintf "C%d" n
                   | Free i -> Printf.sprintf "F%d" i
                   | Refree i -> Printf.sprintf "R%d" i)
                 ops)))
       QCheck.Gen.(
         pair (0 -- 10_000)
           (list_size (1 -- 80)
              (frequency
                 [
                   (5, return Alloc);
                   (1, map (fun n -> Contig n) (1 -- 4));
                   (4, map (fun i -> Free i) (0 -- 1000));
                   (1, map (fun i -> Refree i) (0 -- 1000));
                 ]))))
    (fun (seed, ops) ->
      let ps = 4096 and nframes = 24 in
      let mem =
        Phys_mem.create ~scramble:(Rng.create ~seed) ~size:(nframes * ps)
          ~page_size:ps ()
      in
      let model = List_alloc.create ~seed ~nframes ~page_size:ps in
      let held = ref [] and freed = ref [] in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Out_of_memory -> Error "oom"
        | exception Invalid_argument m -> Error m
      in
      let take_nth l i =
        let x = List.nth l (i mod List.length l) in
        (x, List.filter (( <> ) x) l)
      in
      List.for_all
        (fun op ->
          let got, want =
            match op with
            | Alloc ->
                let r = outcome (fun () -> Phys_mem.alloc_frame mem) in
                (match r with Ok a -> held := a :: !held | Error _ -> ());
                (r, outcome (fun () -> List_alloc.alloc_frame model))
            | Contig n ->
                let r = Phys_mem.alloc_contiguous mem ~nframes:n in
                Option.iter
                  (fun base ->
                    for i = 0 to n - 1 do
                      held := (base + (i * ps)) :: !held
                    done)
                  r;
                ( Ok (Option.value r ~default:(-1)),
                  Ok
                    (Option.value ~default:(-1)
                       (List_alloc.alloc_contiguous model ~nframes:n)) )
            | Free i when !held <> [] ->
                let a, rest = take_nth !held i in
                held := rest;
                freed := a :: !freed;
                ( outcome (fun () -> Phys_mem.free_frame mem a; a),
                  outcome (fun () -> List_alloc.free_frame model a; a) )
            | Refree i when !freed <> [] ->
                (* a double free, unless the frame was handed out again *)
                let a, _ = take_nth !freed i in
                if List.mem a !held then (Ok 0, Ok 0)
                else
                  ( outcome (fun () -> Phys_mem.free_frame mem a; a),
                    outcome (fun () -> List_alloc.free_frame model a; a) )
            | Free _ | Refree _ -> (Ok 0, Ok 0)
          in
          got = want
          && Phys_mem.free_frames mem = Hashtbl.length model.List_alloc.free_set)
        ops)

(* A nine-host DEC 3000/600 star names 9 x 128 MB of host memory; only
   the pages its set-up writes may cost heap. *)
let test_star_live_heap_bounded () =
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live_bytes () in
  let _eng, topo =
    Osiris_core.Network.star ~n:9 ~machine:Osiris_core.Machine.dec3000_600 ()
  in
  let grown = live_bytes () - before in
  let host0 = Osiris_core.Network.host topo 0 in
  Alcotest.(check int) "nominal memory unchanged" (128 * 1024 * 1024)
    (Phys_mem.size host0.Osiris_core.Host.mem);
  Alcotest.(check bool)
    (Printf.sprintf "star live heap %d MB < 64 MB" (grown / 1_000_000))
    true
    (grown < 64_000_000);
  ignore (Sys.opaque_identity topo)

let suite =
  [
    Alcotest.test_case "phys_mem: alloc/free" `Quick test_alloc_free_cycle;
    Alcotest.test_case "phys_mem: double free" `Quick test_double_free_rejected;
    Alcotest.test_case "phys_mem: exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "phys_mem: contiguous" `Quick test_contiguous_alloc;
    Alcotest.test_case "phys_mem: read/write" `Quick test_rw_roundtrip;
    Alcotest.test_case "phys_mem: bounds" `Quick test_bounds_checked;
    QCheck_alcotest.to_alcotest sparse_matches_flat;
    Alcotest.test_case "phys_mem: untouched reads stay untouched" `Quick
      test_untouched_reads_stay_untouched;
    QCheck_alcotest.to_alcotest allocation_order_unchanged;
    Alcotest.test_case "phys_mem: 9-host star live heap bounded" `Quick
      test_star_live_heap_bounded;
    QCheck_alcotest.to_alcotest pbuf_split_preserves;
    QCheck_alcotest.to_alcotest pbuf_coalesce_inverse_of_split;
    Alcotest.test_case "pbuf: gaps stay split" `Quick test_coalesce_non_adjacent;
    Alcotest.test_case "vspace: translate" `Quick test_vspace_translate_roundtrip;
    Alcotest.test_case "vspace: scrambled frames fragment" `Quick
      test_vspace_scrambled_fragmentation;
    Alcotest.test_case "vspace: sequential frames coalesce" `Quick
      test_vspace_sequential_is_contiguous;
    Alcotest.test_case "vspace: contiguous alloc" `Quick
      test_vspace_contiguous_alloc;
    Alcotest.test_case "vspace: offset alloc" `Quick test_vspace_offset_alloc;
    Alcotest.test_case "vspace: free returns frames" `Quick
      test_vspace_free_returns_frames;
    Alcotest.test_case "vspace: page fault" `Quick test_page_fault;
    Alcotest.test_case "vspace: wiring counts" `Quick test_wiring_counts;
    Alcotest.test_case "sg_map: program/translate" `Quick test_sg_map;
    Alcotest.test_case "sg_map: load accounting" `Quick
      test_sg_map_loads_accumulate;
  ]
