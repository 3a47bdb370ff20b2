(* Ownership lint: policy parsing and each rule firing on the committed
   fixtures under fixtures/olint (which are parsed, never compiled).
   `dune build @olint` additionally runs the real binary over both the
   clean tree (expects exit 0) and these fixtures (expects exit 1). *)

module Policy = Osiris_analysis.Policy
module Lint = Osiris_analysis.Lint
module Typed = Osiris_analysis.Typed

(* `dune runtest` runs with cwd = _build/default/test (fixtures copied in
   via the test deps); `dune exec test/test_main.exe` runs from the repo
   root. Resolve against either. *)
let fixture_root =
  if Sys.file_exists "fixtures/olint" then "fixtures/olint"
  else "test/fixtures/olint"

let fixture name = Filename.concat fixture_root name

(* A policy equivalent in shape to the repo's olint.policy, inlined so
   the tests do not depend on the invocation directory. *)
let policy =
  Policy.of_string
    "scan lib\n\
     own head lib/board/desc_queue.ml\n\
     own tail lib/board/desc_queue.ml\n\
     own q_head lib/switch/switch.ml\n\
     own reserved lib/switch/switch.ml\n\
     own ent_head lib/lb/reps.ml\n\
     own ent_tail lib/lb/reps.ml\n\
     own cached lib/lb/reps.ml\n\
     own last_key lib/sim/heap.ml\n\
     own h_len lib/sim/heap.ml\n\
     own h_nodes lib/sim/heap.ml\n\
     own gen lib/sim/process.ml\n\
     own c_count lib/classify/table.ml\n\
     own c_maxd lib/classify/table.ml\n\
     own c_lookups lib/classify/table.ml\n\
     shared irq_filter\n\
     accessor lib/board/board.ml\n"

let rules vs = List.map (fun v -> v.Lint.rule) vs

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let test_policy_parsing () =
  Alcotest.(check (list string)) "scan" [ "lib" ] policy.Policy.scan;
  Alcotest.(check (option (list string))) "owned field"
    (Some [ "lib/board/desc_queue.ml" ])
    (Policy.owners policy "head");
  Alcotest.(check (option (list string))) "shared field -> accessors"
    (Some [ "lib/board/board.ml" ])
    (Policy.owners policy "irq_filter");
  Alcotest.(check (option (list string))) "undeclared field" None
    (Policy.owners policy "slots_foo");
  Alcotest.(check bool) "path match from any cwd" true
    (Policy.path_matches "lib/board/desc_queue.ml"
       "/root/repo/lib/board/desc_queue.ml");
  Alcotest.(check bool) "suffix must be whole components" false
    (Policy.path_matches "board/desc_queue.ml" "lib/board/not_desc_queue.ml");
  (match Policy.of_string "shared a\nown head\n" with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the line (%s)" msg)
        true
        (contains ~affix:"line 2" msg)
  | _ -> Alcotest.fail "malformed 'own' accepted");
  match Policy.of_string "frobnicate lib\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown directive accepted"

let test_r1_foreign_writer () =
  match Lint.check_file policy (fixture "r1_bad_owner.ml") with
  | [ v ] ->
      Alcotest.(check string) "rule" "R1" v.Lint.rule;
      Alcotest.(check int) "line" 5 v.Lint.line;
      Alcotest.(check bool) "message names the field" true
        (contains ~affix:"head" v.Lint.message)
  | vs -> Alcotest.failf "expected exactly one R1, got %d" (List.length vs)

let test_r2_obj () =
  match Lint.check_file policy (fixture "r2_obj.ml") with
  | [ v ] ->
      Alcotest.(check string) "rule" "R2" v.Lint.rule;
      Alcotest.(check int) "line" 2 v.Lint.line
  | vs -> Alcotest.failf "expected exactly one R2, got %d" (List.length vs)

let test_r3_catchall_and_exit () =
  let vs = Lint.check_file policy (fixture "r3_catchall.ml") in
  Alcotest.(check (list string)) "both R3 forms" [ "R3"; "R3" ] (rules vs);
  Alcotest.(check (list int)) "lines" [ 3; 4 ]
    (List.sort compare (List.map (fun v -> v.Lint.line) vs))

let test_r3_allow_exemptions () =
  let exempt =
    Policy.of_string
      (Printf.sprintf
         "allow catchall %s # test fixture\nallow exit %s # test fixture\n"
         (fixture "r3_catchall.ml")
         (fixture "r3_catchall.ml"))
  in
  Alcotest.(check (list string)) "exempted file is clean" []
    (rules (Lint.check_file exempt (fixture "r3_catchall.ml")))

(* Exemption-shaped directives must carry a '# why' comment, and allow
   keys are a closed set — a typo'd rule name must not silently grant
   nothing (or everything). *)
let test_exemptions_need_justification () =
  let rejects ~what s =
    match Policy.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects ~what:"unjustified allow" "allow catchall lib/foo.ml\n";
  rejects ~what:"unknown allow key" "allow catchnone lib/foo.ml # why\n";
  rejects ~what:"unjustified alloc-free" "alloc-free Float.min\n";
  rejects ~what:"unjustified uncovered" "uncovered switch.marked\n";
  let ok =
    Policy.of_string
      "allow catchall lib/foo.ml # fixture\n\
       alloc-free Float.min # compare/select\n\
       uncovered x.y # telemetry\n"
  in
  Alcotest.(check (list string)) "alloc-free parsed" [ "Float.min" ]
    ok.Policy.alloc_free;
  Alcotest.(check bool) "uncovered parsed" true (Policy.uncovered_ok ok "x.y")

let test_hot_directive () =
  let p = Policy.of_string "hot lib/sim/heap.ml:add\nhot lib/atm/sar.ml:push\n" in
  Alcotest.(check (list (pair string string)))
    "hot entries"
    [ ("lib/sim/heap.ml", "add"); ("lib/atm/sar.ml", "push") ]
    p.Policy.hot;
  Alcotest.(check bool) "is_hot" true
    (Policy.is_hot p ~file:"lib/sim/heap.ml" ~fn:"add");
  match Policy.of_string "hot lib/sim/heap.ml\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "hot without :function accepted"

let test_r4_missing_mli () =
  match Lint.check_missing_mli policy (fixture "r4_missing_mli") with
  | [ v ] ->
      Alcotest.(check string) "rule" "R4" v.Lint.rule;
      Alcotest.(check bool) "names the orphan" true
        (Filename.basename v.Lint.file = "orphan.ml")
  | vs -> Alcotest.failf "expected exactly one R4, got %d" (List.length vs)

let test_r0_unparsable () =
  Alcotest.(check (list string)) "parse failure is a violation" [ "R0" ]
    (rules (Lint.check_file policy (fixture "r0_unparsable.ml")))

(* The whole fixture tree through the same entry point the binary uses:
   every rule represented, results sorted by file. *)
let test_check_tree_over_fixtures () =
  let vs = Lint.check_tree policy [ fixture_root ] in
  let count r = List.length (List.filter (fun v -> v.Lint.rule = r) vs) in
  Alcotest.(check int) "one R0" 1 (count "R0");
  Alcotest.(check int) "R1 per foreign write" 13 (count "R1");
  Alcotest.(check int) "one R2" 1 (count "R2");
  Alcotest.(check int) "two R3" 2 (count "R3");
  Alcotest.(check int) "R4 for every .mli-less fixture .ml" 9 (count "R4");
  let files = List.map (fun v -> v.Lint.file) vs in
  Alcotest.(check (list string)) "sorted by file" (List.sort compare files)
    files;
  (* The grep-able one-line form carries file, line and rule. *)
  let printed =
    Format.asprintf "%a" Lint.pp_violation
      (List.find (fun v -> v.Lint.rule = "R1") vs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pp form (%s)" printed)
    true
    (contains ~affix:"r1_bad_owner.ml:5: [R1]" printed)

(* ------------------------------------------------------------------ *)
(* Typed passes (R5/R6/R7) over the compiled fixture library. Linking
   the fixtures into this binary builds only their native objects; the
   .cmt artifacts come from the fixtures' @check alias, which test/dune
   lists as a dependency so that a bare `dune runtest` builds them too. *)

let cmt_root = if Sys.file_exists "fixtures/olint" then "." else "_build/default"

let typed_policy =
  Policy.of_string
    "scan test/fixtures/olint/typed\n\
     hot test/fixtures/olint/typed/r5_alloc.ml:tick\n\
     hot test/fixtures/olint/typed/r5_transitive.ml:tick\n\
     hot test/fixtures/olint/typed/r5_hatch.ml:tick\n\
     hot test/fixtures/olint/typed/r5_classify.ml:lookup\n\
     sim-time Engine.now\n\
     wall-clock Unix.gettimeofday\n\
     coverage-fn accounting\n"

let test_typed_fixtures () =
  let vs = Typed.check_tree typed_policy ~cmt_root in
  let of_rule r = List.filter (fun v -> v.Lint.rule = r) vs in
  Alcotest.(check (list string)) "fixture .cmt artifacts found" []
    (List.map (fun v -> v.Lint.message) (of_rule "R0"));
  Alcotest.(check int) "four R5" 4 (List.length (of_rule "R5"));
  Alcotest.(check int) "one R6" 1 (List.length (of_rule "R6"));
  Alcotest.(check int) "one R7" 1 (List.length (of_rule "R7"));
  let in_file name =
    List.filter (fun v -> Filename.basename v.Lint.file = name) vs
  in
  (match in_file "r5_alloc.ml" with
  | [ v ] ->
      Alcotest.(check bool) "direct allocation flagged" true
        (contains ~affix:"tuple construction" v.Lint.message)
  | vs -> Alcotest.failf "r5_alloc: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_transitive.ml" with
  | [ v ] ->
      Alcotest.(check bool) "reported in the callee" true
        (contains ~affix:"boxit" v.Lint.message);
      Alcotest.(check bool) "names the hot root" true
        (contains ~affix:"hot via" v.Lint.message)
  | vs -> Alcotest.failf "r5_transitive: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_classify.ml" with
  | [ v ] ->
      Alcotest.(check bool) "boxed lookup result flagged" true
        (contains ~affix:"Some" v.Lint.message)
  | vs -> Alcotest.failf "r5_classify: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r5_hatch.ml" with
  | [ v ] ->
      (* the justified box is accepted; only the bare attribute fires *)
      Alcotest.(check bool) "bare escape hatch flagged" true
        (contains ~affix:"justification" v.Lint.message)
  | vs -> Alcotest.failf "r5_hatch: expected 1 violation, got %d"
            (List.length vs));
  (match in_file "r6_mix.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "R6" v.Lint.rule;
      Alcotest.(check bool) "names the mixing operator" true
        (contains ~affix:"wall-clock" v.Lint.message)
  | vs -> Alcotest.failf "r6_mix: expected 1 violation, got %d"
            (List.length vs));
  match in_file "r7_counter.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "R7" v.Lint.rule;
      Alcotest.(check bool) "names the counter" true
        (contains ~affix:"fixture.lost_cells" v.Lint.message)
  | vs ->
      Alcotest.failf "r7_counter: expected 1 violation, got %d"
        (List.length vs)

(* The stale-policy rot guard: a hot entry pointing at a function that
   no longer exists must itself be a violation, not a silent no-op. *)
let test_typed_stale_hot_entry () =
  let p =
    Policy.of_string
      "scan test/fixtures/olint/typed\n\
       hot test/fixtures/olint/typed/r5_alloc.ml:gone\n\
       hot test/fixtures/olint/typed/no_such_file.ml:tick\n"
  in
  let vs =
    List.filter (fun v -> v.Lint.rule = "R5") (Typed.check_tree p ~cmt_root)
  in
  Alcotest.(check int) "both stale entries flagged" 2 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) "rule" "R5" v.Lint.rule;
      Alcotest.(check bool) "message says stale" true
        (contains ~affix:"hot entry" v.Lint.message))
    vs

(* A scan root with no compiled source must not pass as clean: that is
   how an unbuilt fixture tree once left R6 silently at zero. *)
let test_typed_unbuilt_scan_root () =
  let p =
    Policy.of_string
      "scan test/fixtures/olint/typed\nscan test/fixtures/olint/r4_missing_mli\n"
  in
  match
    List.filter (fun v -> v.Lint.rule = "R0") (Typed.check_tree p ~cmt_root)
  with
  | [ v ] ->
      Alcotest.(check string) "names the root" "test/fixtures/olint/r4_missing_mli"
        v.Lint.file;
      Alcotest.(check bool) "says what is missing" true
        (contains ~affix:"no .cmt" v.Lint.message)
  | vs -> Alcotest.failf "expected 1 R0, got %d" (List.length vs)

let suite =
  [
    Alcotest.test_case "policy parses and answers queries" `Quick
      test_policy_parsing;
    Alcotest.test_case "R1: foreign writer of an owned field" `Quick
      test_r1_foreign_writer;
    Alcotest.test_case "R2: Obj reference" `Quick test_r2_obj;
    Alcotest.test_case "R3: catch-all and exit" `Quick
      test_r3_catchall_and_exit;
    Alcotest.test_case "R3: allow-listed file is exempt" `Quick
      test_r3_allow_exemptions;
    Alcotest.test_case "exemptions need justification; allow keys closed"
      `Quick test_exemptions_need_justification;
    Alcotest.test_case "hot directive parses and answers is_hot" `Quick
      test_hot_directive;
    Alcotest.test_case "R4: missing .mli" `Quick test_r4_missing_mli;
    Alcotest.test_case "R0: unparsable file reported" `Quick
      test_r0_unparsable;
    Alcotest.test_case "check_tree covers every rule, sorted" `Quick
      test_check_tree_over_fixtures;
    Alcotest.test_case "R5/R6/R7: typed passes catch the seeded fixtures"
      `Quick test_typed_fixtures;
    Alcotest.test_case "R5: stale hot entries are violations" `Quick
      test_typed_stale_hot_entry;
    Alcotest.test_case "R0: unbuilt typed scan root reported" `Quick
      test_typed_unbuilt_scan_root;
  ]
