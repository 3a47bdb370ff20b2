(* Typed analysis passes over the compiler's .cmt artifacts.

   The syntactic lint (R1–R4, {!Lint}) answers "who writes this field";
   these passes answer questions that need types and resolved paths:

   - R5: is this hot-path function transitively allocation-free?
   - R6: does simulated time ever mix arithmetically with wall-clock
     time without a named conversion?
   - R7: is every registered metrics counter read by a conservation or
     invariant check?

   The input is the set of .cmt files the normal dune build already
   produces (dune always compiles with -bin-annot), so the passes see
   exactly what the compiler saw: resolved paths through module
   aliases, inferred types for boxing decisions, and attributes for the
   escape hatches. Nothing here re-runs the typechecker — a .cmt is
   loaded, walked, and dropped. *)

type violation = Lint.violation = {
  rule : string;
  file : string;
  line : int;
  message : string;
}

(* ------------------------------------------------------------------ *)
(* Module index: every loaded implementation .cmt, addressable by the
   short module name so cross-module calls resolve. *)

type modul = {
  m_modname : string;  (* "Osiris_sim__Heap" *)
  m_key : string;  (* "Heap" *)
  m_source : string;  (* "lib/sim/heap.ml" *)
  m_fns : (string * Typedtree.expression) list;  (* top-level lets *)
  m_aliases : (string * string list) list;
      (* local [module M = Path] bindings, name → target path elements *)
  m_structure : Typedtree.structure;
}

(* "Osiris_sim__Heap" → "Heap"; "Stdlib__Hashtbl" → "Hashtbl";
   "Osiris_sim__" → "" (the wrapper alias module itself). *)
let strip_lib_prefix name =
  let n = String.length name in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if name.[i] = '_' && name.[i + 1] = '_' then last_sep (i + 1) (Some i)
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i + 2 < n -> String.sub name (i + 2) (n - i - 2)
  | Some _ -> "" (* trailing "__": a wrapper alias module *)
  | None -> name

let rec path_elems (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_elems p @ [ s ]
  | Path.Papply (a, _) -> path_elems a
  | _ -> []

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* Top-level value bindings of a structure: the functions the analyses
   can resolve calls into. *)
let index_structure (str : Typedtree.structure) =
  let fns = ref [] and aliases = ref [] in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Typedtree.Tpat_var (id, _) ->
                  fns := (Ident.name id, vb.vb_expr) :: !fns
              | _ -> ())
            vbs
      | Typedtree.Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Typedtree.Tmod_ident (path, _) ->
              aliases := (Ident.name id, path_elems path) :: !aliases
          | _ -> ())
      | _ -> ())
    str.str_items;
  (List.rev !fns, List.rev !aliases)

let load_cmt file =
  match Cmt_format.read_cmt file with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some source ->
          let fns, aliases = index_structure str in
          Some
            {
              m_modname = cmt.Cmt_format.cmt_modname;
              m_key = strip_lib_prefix cmt.Cmt_format.cmt_modname;
              m_source = source;
              m_fns = fns;
              m_aliases = aliases;
              m_structure = str;
            }
      | _ -> None)

(* Walk [root] for .cmt files. Unlike the source walk this must descend
   into dot-directories: dune keeps artifacts under .objs. *)
let rec walk_cmts dir =
  if not (Sys.is_directory dir) then
    if Filename.check_suffix dir ".cmt" then [ dir ] else []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> walk_cmts (Filename.concat dir entry))

type index = {
  policy : Policy.t;
  mods : modul list;
  by_key : (string, modul list) Hashtbl.t;
  scanned : modul list;  (* modules whose source lives under a scan root *)
}

let lib_prefix modname =
  match String.index_opt modname '_' with
  | Some _ -> (
      (* prefix up to and including the "__" separator, if any *)
      let rec find i =
        if i + 1 >= String.length modname then None
        else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> Some (String.sub modname 0 i)
      | None -> None)
  | None -> None

(* Resolve a short module key from [caller]: prefer a sibling of the
   caller's own library, else a unique match anywhere. *)
let find_module idx ~caller key =
  match Hashtbl.find_opt idx.by_key key with
  | None -> None
  | Some [ m ] -> Some m
  | Some ms -> (
      match lib_prefix caller.m_modname with
      | Some p -> (
          match
            List.find_opt (fun m -> lib_prefix m.m_modname = Some p) ms
          with
          | Some m -> Some m
          | None -> None)
      | None -> None)

let under_root root source =
  let root = if Filename.check_suffix root "/" then root else root ^ "/" in
  String.length source > String.length root
  && String.sub source 0 (String.length root) = root

let under_scan policy source =
  List.exists (fun root -> under_root root source) policy.Policy.scan

let build_index policy ~cmt_root =
  let mods = List.filter_map load_cmt (walk_cmts cmt_root) in
  let by_key = Hashtbl.create 97 in
  List.iter
    (fun m ->
      if m.m_key <> "" then
        Hashtbl.replace by_key m.m_key
          (m :: (Option.value ~default:[] (Hashtbl.find_opt by_key m.m_key))))
    mods;
  let scanned =
    List.filter (fun m -> under_scan policy m.m_source) mods
  in
  { policy; mods; by_key; scanned }

(* ------------------------------------------------------------------ *)
(* Attributes: the justified escape hatches. *)

let attr_payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Parsetree.Pstr_eval
              ( { pexp_desc = Parsetree.Pexp_constant (Pconst_string (s, _, _));
                  _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

(* [None] — no such attribute; [Some (Some why)] — justified;
   [Some None] — attribute present but missing its justification. *)
let escape_hatch name (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (attr : Parsetree.attribute) ->
      if attr.attr_name.txt = name then Some (attr_payload_string attr)
      else acc)
    None attrs

(* ------------------------------------------------------------------ *)
(* R5 — hot-path allocation freedom. *)

(* External callees certified allocation-free without analysis: integer
   and comparison primitives, array/bytes indexing, and the handful of
   Stdlib entry points that only read or overwrite. Everything else an
   uncertified external call must be justified in the policy
   (alloc-free) or at the call site ([@osiris.alloc_ok "why"]). *)
let builtin_alloc_free =
  [
    "+"; "-"; "*"; "/"; "mod"; "abs"; "land"; "lor"; "lxor"; "lnot"; "lsl";
    "lsr"; "asr"; "~-"; "~+"; "succ"; "pred"; "="; "<>"; "<"; ">"; "<="; ">=";
    "=="; "!="; "not"; "&&"; "||"; "min"; "max"; "compare"; "ignore"; "fst";
    "snd"; "incr"; "decr"; "!"; ":="; "int_of_float"; "truncate"; "raise";
    "raise_notrace"; "int_of_char"; "char_of_int";
    (* %floatofint and float arithmetic are primitives whose results
       stay unboxed in arithmetic/store context; a result that escapes
       into a binding is reported separately by the boxed-binding rule *)
    "float_of_int"; "+."; "-."; "*."; "/."; "~-.";
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.blit"; "Bytes.blit_string"; "Bytes.fill";
    "String.length"; "String.get"; "String.unsafe_get";
    "Char.code"; "Char.chr"; "Int.equal"; "Int.compare";
    "Hashtbl.find"; "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length";
    "Float.of_int"; "Float.to_int";
  ]

(* Normalize a resolved call path to ("Mod", "fn") / ("", "fn"),
   resolving local [module M = ...] aliases and dropping library
   wrapper components. *)
let normalize_call (m : modul) elems =
  let elems =
    match elems with
    | head :: rest -> (
        match List.assoc_opt head m.m_aliases with
        | Some target -> target @ rest
        | None -> elems)
    | [] -> []
  in
  let rec split acc = function
    | [] -> (acc, "")
    | [ v ] -> (acc, v)
    | e :: tl -> split (acc @ [ e ]) tl
  in
  let mods, v = split [] elems in
  let mods =
    List.filter_map
      (fun e ->
        let s = strip_lib_prefix e in
        if s = "" || s = "Stdlib" || e = "Stdlib" then None else Some s)
      mods
  in
  match List.rev mods with [] -> ("", v) | last :: _ -> (last, v)

let display_name (mk, v) = if mk = "" then v else mk ^ "." ^ v

(* The number of boxed-number types whose bindings we flag. *)
let is_boxed_number (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_float
      || Path.same p Predef.path_int32
      || Path.same p Predef.path_int64
      || Path.same p Predef.path_nativeint
  | _ -> false

type r5 = {
  idx : index;
  mutable root : string;  (* "lib/sim/heap.ml:add", for messages *)
  r5_violations : violation list ref;
  visited : (string, unit) Hashtbl.t;  (* modname ^ "." ^ fn *)
}

(* Strip the curried parameter spine of a definition: the outer
   Texp_function chain is the function's own arrows, not a closure
   allocated on the hot path. A multi-case outer [function] contributes
   every arm's body. *)
let rec fn_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_rhs; _ } ]; _ } -> fn_bodies c_rhs
  | Typedtree.Texp_function { cases; _ } ->
      List.map (fun (c : Typedtree.value Typedtree.case) -> c.c_rhs) cases
  | _ -> [ e ]

let rec r5_check_fn st (m : modul) fn_name (body : Typedtree.expression) =
  let key = m.m_modname ^ "." ^ fn_name in
  if not (Hashtbl.mem st.visited key) then begin
    Hashtbl.replace st.visited key ();
    List.iter (r5_expr st m fn_name) (fn_bodies body)
  end

and r5_add st m fn ~loc what =
  st.r5_violations :=
    {
      rule = "R5";
      file = m.m_source;
      line = line_of_loc loc;
      message =
        Printf.sprintf "%s in `%s' (hot via %s)" what fn st.root;
    }
    :: !(st.r5_violations)

(* One expression of a hot function body. Sub-expressions are walked
   explicitly so a justified [@osiris.alloc_ok] can prune its whole
   subtree. *)
and r5_expr st m fn (e : Typedtree.expression) =
  match escape_hatch "osiris.alloc_ok" e.exp_attributes with
  | Some (Some _why) -> () (* justified: site accepted, subtree pruned *)
  | Some None ->
      r5_add st m fn ~loc:e.exp_loc
        "[@osiris.alloc_ok] without a justification string"
  | None -> (
      let recurse () = r5_children st m fn e in
      match e.exp_desc with
      | Typedtree.Texp_function _ ->
          r5_add st m fn ~loc:e.exp_loc "closure construction"
      | Typedtree.Texp_tuple _ ->
          r5_add st m fn ~loc:e.exp_loc "tuple construction";
          recurse ()
      | Typedtree.Texp_record _ ->
          r5_add st m fn ~loc:e.exp_loc "record construction";
          recurse ()
      | Typedtree.Texp_array _ ->
          r5_add st m fn ~loc:e.exp_loc "array construction";
          recurse ()
      | Typedtree.Texp_construct (_, cd, args) when args <> [] ->
          r5_add st m fn ~loc:e.exp_loc
            (Printf.sprintf "allocating constructor %s" cd.cstr_name);
          recurse ()
      | Typedtree.Texp_variant (_, Some _) ->
          r5_add st m fn ~loc:e.exp_loc "polymorphic variant allocation";
          recurse ()
      | Typedtree.Texp_lazy _ | Typedtree.Texp_object _
      | Typedtree.Texp_pack _ ->
          r5_add st m fn ~loc:e.exp_loc "lazy/object/module allocation"
      | Typedtree.Texp_letop _ ->
          r5_add st m fn ~loc:e.exp_loc "binding-operator allocation"
      | Typedtree.Texp_let (_, vbs, body) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              (match escape_hatch "osiris.alloc_ok" vb.vb_attributes with
              | Some (Some _) -> ()
              | Some None ->
                  r5_add st m fn ~loc:vb.vb_loc
                    "[@osiris.alloc_ok] without a justification string"
              | None ->
                  (match vb.vb_expr.exp_desc with
                  | Typedtree.Texp_constant _ | Typedtree.Texp_ident _ -> ()
                  | _ ->
                      if is_boxed_number vb.vb_expr.exp_type then
                        r5_add st m fn ~loc:vb.vb_loc
                          "boxed float/int64 binding");
                  r5_expr st m fn vb.vb_expr))
            vbs;
          r5_expr st m fn body
      | Typedtree.Texp_match (scrut, cases, _) ->
          (* [match a, b with ...] never builds the tuple: the compiler
             matches the components in place. Only a tuple that escapes
             the immediate scrutinee position allocates. *)
          (match scrut.exp_desc with
          | Typedtree.Texp_tuple els -> List.iter (r5_expr st m fn) els
          | _ -> r5_expr st m fn scrut);
          List.iter
            (fun (c : Typedtree.computation Typedtree.case) ->
              Option.iter (r5_expr st m fn) c.c_guard;
              r5_expr st m fn c.c_rhs)
            cases
      | Typedtree.Texp_apply (f, args) ->
          if List.exists (fun (_, a) -> a = None) args then
            r5_add st m fn ~loc:e.exp_loc "partial application";
          (match f.exp_desc with
          | Typedtree.Texp_ident (path, _, _) ->
              r5_call st m fn ~loc:e.exp_loc (path_elems path)
          | _ ->
              r5_add st m fn ~loc:e.exp_loc
                "call through a computed function value";
              r5_expr st m fn f);
          List.iter
            (fun (_, a) -> match a with Some a -> r5_expr st m fn a | None -> ())
            args
      | _ -> recurse ())

and r5_call st m fn ~loc elems =
  match elems with
  | [ name ] -> (
      (* Unqualified: a sibling top-level function, or a local value. *)
      match List.assoc_opt name m.m_fns with
      | Some body -> r5_check_fn st m name body
      | None ->
          if
            not
              (List.mem name builtin_alloc_free
              || List.mem name st.idx.policy.Policy.alloc_free)
          then
            r5_add st m fn ~loc
              (Printf.sprintf
                 "call through local function value `%s' (not certifiable)"
                 name))
  | _ -> (
      let mk, v = normalize_call m elems in
      let name = display_name (mk, v) in
      let certified =
        List.mem name builtin_alloc_free
        || List.mem v builtin_alloc_free
        || List.mem name st.idx.policy.Policy.alloc_free
        || List.mem v st.idx.policy.Policy.alloc_free
      in
      if not certified then
        match find_module st.idx ~caller:m mk with
        | Some target -> (
            match List.assoc_opt v target.m_fns with
            | Some body -> r5_check_fn st target v body
            | None ->
                r5_add st m fn ~loc
                  (Printf.sprintf
                     "call into `%s': no analyzable definition (extern or \
                      re-export); certify with 'alloc-free' or \
                      [@osiris.alloc_ok \"why\"]"
                     name))
        | None ->
            r5_add st m fn ~loc
              (Printf.sprintf
                 "call into non-allocation-certified function `%s'" name))

and r5_children st m fn (e : Typedtree.expression) =
  (* Generic traversal that funnels every sub-expression back through
     [r5_expr], so pruning and checks stay consistent. *)
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ sub -> r5_expr st m fn sub);
    }
  in
  Tast_iterator.default_iterator.expr it e

let check_r5 idx =
  let st =
    { idx; root = ""; r5_violations = ref []; visited = Hashtbl.create 97 }
  in
  let missing = ref [] in
  List.iter
    (fun (file, fn) ->
      st.root <- file ^ ":" ^ fn;
      match
        List.find_opt (fun m -> Policy.path_matches file m.m_source) idx.mods
      with
      | None ->
          missing :=
            {
              rule = "R5";
              file;
              line = 1;
              message =
                Printf.sprintf
                  "hot entry %s: no .cmt for this file (stale policy entry, \
                   or the tree was not built)"
                  st.root;
            }
            :: !missing
      | Some m -> (
          match List.assoc_opt fn m.m_fns with
          | None ->
              missing :=
                {
                  rule = "R5";
                  file = m.m_source;
                  line = 1;
                  message =
                    Printf.sprintf
                      "hot entry %s: no top-level function `%s' in %s"
                      st.root fn m.m_source;
                }
                :: !missing
          | Some body -> r5_check_fn st m fn body))
    idx.policy.Policy.hot;
  !missing @ !(st.r5_violations)

(* ------------------------------------------------------------------ *)
(* R6 — clock-domain taint. *)

type domain = Sim | Wall

let arith_ops =
  [
    "+"; "-"; "*"; "/"; "mod"; "+."; "-."; "*."; "/."; "min"; "max"; "=";
    "<>"; "<"; ">"; "<="; ">="; "compare";
    (* Numeric casts preserve the clock domain: they are how simulated
       nanoseconds (int) and wall-clock seconds (float) end up in the
       same numeric type in the first place. Single-argument, so they
       can only propagate a domain, never themselves mix two. *)
    "int_of_float"; "float_of_int"; "truncate"; "Float.of_int";
    "Float.to_int"; "Int.of_float"; "Int.to_float";
  ]

type r6 = {
  r6_policy : Policy.t;
  r6_violations : violation list ref;
  (* let-bound variables known to carry a clock domain, by Ident name;
     scoping is approximated (a lint, not a proof) *)
  env : (string, domain) Hashtbl.t;
}

let r6_source st (m : modul) elems =
  let name = display_name (normalize_call m elems) in
  if List.mem name st.r6_policy.Policy.sim_time then Some Sim
  else if List.mem name st.r6_policy.Policy.wall_clock then Some Wall
  else None

let r6_is_conversion st m elems =
  List.mem
    (display_name (normalize_call m elems))
    st.r6_policy.Policy.clock_conversion

(* The clock domain an expression evaluates in, if the lint can tell. *)
let rec r6_domain st m (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      Hashtbl.find_opt st.env (Ident.name id)
  | Typedtree.Texp_apply (f, args) -> (
      match f.exp_desc with
      | Typedtree.Texp_ident (path, _, _) -> (
          let elems = path_elems path in
          match r6_source st m elems with
          | Some d -> Some d
          | None ->
              if r6_is_conversion st m elems then None
              else
                let name = display_name (normalize_call m elems) in
                if List.mem name arith_ops then
                  (* propagate through arithmetic *)
                  List.fold_left
                    (fun acc (_, a) ->
                      match (acc, a) with
                      | Some d, _ -> Some d
                      | None, Some a -> r6_domain st m a
                      | None, None -> None)
                    None args
                else None)
      | _ -> None)
  | Typedtree.Texp_let (_, _, body) -> r6_domain st m body
  | Typedtree.Texp_sequence (_, e) -> r6_domain st m e
  | _ -> None

let r6_walk st (m : modul) fn_name body =
  let add ~loc msg =
    st.r6_violations :=
      {
        rule = "R6";
        file = m.m_source;
        line = line_of_loc loc;
        message = Printf.sprintf "%s in `%s'" msg fn_name;
      }
      :: !(st.r6_violations)
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    match escape_hatch "osiris.clock_ok" e.exp_attributes with
    | Some (Some _why) -> () (* justified mixing: subtree accepted *)
    | Some None ->
        add ~loc:e.exp_loc "[@osiris.clock_ok] without a justification string"
    | None -> (
        (match e.exp_desc with
        | Typedtree.Texp_apply (f, args) -> (
            match f.exp_desc with
            | Typedtree.Texp_ident (path, _, _) ->
                let name =
                  display_name (normalize_call m (path_elems path))
                in
                if List.mem name arith_ops then begin
                  let domains =
                    List.filter_map
                      (fun (_, a) -> Option.bind a (r6_domain st m))
                      args
                  in
                  if List.mem Sim domains && List.mem Wall domains then
                    add ~loc:e.exp_loc
                      (Printf.sprintf
                         "simulated time mixed arithmetically with \
                          wall-clock time (`%s'); use a named \
                          clock-conversion or [@osiris.clock_ok \"why\"]"
                         name)
                end
            | _ -> ())
        | Typedtree.Texp_let (_, vbs, _) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Typedtree.Tpat_var (id, _) -> (
                    match r6_domain st m vb.vb_expr with
                    | Some d -> Hashtbl.replace st.env (Ident.name id) d
                    | None -> ())
                | _ -> ())
              vbs
        | _ -> ());
        Tast_iterator.default_iterator.expr it e)
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (it.expr it) (fn_bodies body)

let check_r6 idx =
  let st =
    { r6_policy = idx.policy; r6_violations = ref []; env = Hashtbl.create 31 }
  in
  List.iter
    (fun m ->
      List.iter
        (fun (fn, body) ->
          Hashtbl.reset st.env;
          r6_walk st m fn body)
        m.m_fns)
    idx.scanned;
  !(st.r6_violations)

(* ------------------------------------------------------------------ *)
(* R7 — conservation coverage of registered counters. *)

type counter_reg = { cr_name : string; cr_key : string; cr_m : modul;
                     cr_loc : Location.t }

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* Every [Metrics.counter "..."] registration in the scanned modules.
   Dynamic prefixes of the form [prefix ^ ".suffix"] register under a
   wildcard display name but keep their suffix as the coverage key. *)
let collect_counters idx =
  let regs = ref [] in
  let reg m (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
        match f.exp_desc with
        | Typedtree.Texp_ident (path, _, _)
          when display_name (normalize_call m (path_elems path))
               = "Metrics.counter" -> (
            let arg =
              List.find_map
                (fun (_, a) -> (a : Typedtree.expression option))
                args
            in
            match arg with
            | Some { exp_desc = Typedtree.Texp_constant c; exp_loc; _ } -> (
                match c with
                | Asttypes.Const_string (s, _, _) ->
                    regs :=
                      {
                        cr_name = s;
                        cr_key = last_component s;
                        cr_m = m;
                        cr_loc = exp_loc;
                      }
                      :: !regs
                | _ -> ())
            | Some
                {
                  exp_desc =
                    Typedtree.Texp_apply
                      ( { exp_desc = Typedtree.Texp_ident (op, _, _); _ },
                        [
                          _;
                          ( _,
                            Some
                              {
                                exp_desc =
                                  Typedtree.Texp_constant
                                    (Asttypes.Const_string (suffix, _, _));
                                _;
                              } );
                        ] );
                  exp_loc;
                  _;
                }
              when path_elems op |> List.rev |> List.hd = "^" ->
                let s = String.trim suffix in
                let s =
                  if String.length s > 0 && s.[0] = '.' then
                    String.sub s 1 (String.length s - 1)
                  else s
                in
                regs :=
                  {
                    cr_name = "*." ^ s;
                    cr_key = last_component s;
                    cr_m = m;
                    cr_loc = exp_loc;
                  }
                  :: !regs
            | Some other ->
                regs :=
                  {
                    cr_name = "<dynamic>";
                    cr_key = "";
                    cr_m = m;
                    cr_loc = other.exp_loc;
                  }
                  :: !regs
            | None -> ())
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun m ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              reg m e;
              Tast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it m.m_structure)
    idx.scanned;
  List.rev !regs

(* Names read inside the policy's coverage functions: record field
   labels and called accessor names, anywhere under a scan root. *)
let collect_coverage idx =
  let reads = Hashtbl.create 97 in
  let note n = Hashtbl.replace reads n () in
  let walk_body m body =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it (e : Typedtree.expression) ->
            (match e.exp_desc with
            | Typedtree.Texp_field (_, _, lbl) -> note lbl.lbl_name
            | Typedtree.Texp_apply (f, _) -> (
                match f.exp_desc with
                | Typedtree.Texp_ident (path, _, _) ->
                    let _, v = normalize_call m (path_elems path) in
                    note v
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    List.iter (it.expr it) (fn_bodies body)
  in
  List.iter
    (fun m ->
      List.iter
        (fun (fn, body) ->
          if List.mem fn idx.policy.Policy.coverage_fns then walk_body m body)
        m.m_fns)
    idx.scanned;
  reads

let check_r7 idx =
  let regs = collect_counters idx in
  let reads = collect_coverage idx in
  List.filter_map
    (fun cr ->
      let covered = cr.cr_key <> "" && Hashtbl.mem reads cr.cr_key in
      let exempt =
        Policy.uncovered_ok idx.policy cr.cr_name
        || (cr.cr_key <> "" && Policy.uncovered_ok idx.policy cr.cr_key)
      in
      if covered || exempt then None
      else
        Some
          {
            rule = "R7";
            file = cr.cr_m.m_source;
            line = line_of_loc cr.cr_loc;
            message =
              Printf.sprintf
                "counter '%s' is not read by any conservation/invariant \
                 check (coverage-fn set: %s); add a check or an 'uncovered' \
                 policy entry"
                cr.cr_name
                (String.concat ", " idx.policy.Policy.coverage_fns);
          })
    regs

(* ------------------------------------------------------------------ *)

(* A scan root without a single compiled source would leave R6 and R7
   vacuously clean. That happens whenever the byte artifacts were never
   built (a native-only [dune runtest] skips them), so it is reported as
   R0, like a file the syntactic lint cannot parse. Generated library
   wrappers ([.ml-gen]) do not count as sources. *)
let check_scan_roots idx ~cmt_root =
  List.filter_map
    (fun root ->
      if
        List.exists
          (fun m ->
            Filename.check_suffix m.m_source ".ml" && under_root root m.m_source)
          idx.scanned
      then None
      else
        Some
          {
            rule = "R0";
            file = root;
            line = 1;
            message =
              Printf.sprintf
                "scan root %s: no .cmt for any of its sources under %s; \
                 build them first (dune build @check)"
                root cmt_root;
          })
    idx.policy.Policy.scan

let check_tree policy ~cmt_root =
  let idx = build_index policy ~cmt_root in
  let by_file v = (v.file, v.line, v.rule) in
  check_scan_roots idx ~cmt_root @ check_r5 idx @ check_r6 idx @ check_r7 idx
  |> List.sort (fun a b -> compare (by_file a) (by_file b))
