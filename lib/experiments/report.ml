type series = { label : string; points : (int * float) list }

type figure = {
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  paper_note : string;
}

type table = {
  t_title : string;
  header : string list;
  rows : string list list;
  t_paper_note : string;
}

let hr = String.make 72 '-'

let print_figure f =
  Printf.printf "\n%s\n%s\n%s\n" hr f.title hr;
  Printf.printf "%-10s" f.xlabel;
  List.iter (fun s -> Printf.printf "%16s" s.label) f.series;
  Printf.printf "   (%s)\n" f.ylabel;
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.points) f.series)
  in
  List.iter
    (fun x ->
      Printf.printf "%-10s"
        (if x >= 1024 && x mod 1024 = 0 then
           Printf.sprintf "%dKB" (x / 1024)
         else Printf.sprintf "%dB" x);
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Printf.printf "%16.1f" y
          | None -> Printf.printf "%16s" "-")
        f.series;
      print_newline ())
    xs;
  Printf.printf "paper: %s\n" f.paper_note

let print_table t =
  Printf.printf "\n%s\n%s\n%s\n" hr t.t_title hr;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) t.rows)
      t.header
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c)
      cells;
    print_newline ()
  in
  print_row t.header;
  List.iter print_row t.rows;
  Printf.printf "paper: %s\n" t.t_paper_note

(* ------------------------------------------------------------------ *)
(* Machine-readable rendering (BENCH.json).                            *)

module Json = Osiris_obs.Json

let table_json t =
  Json.Assoc
    [
      ("kind", Json.String "table");
      ("title", Json.String t.t_title);
      ("header", Json.List (List.map (fun h -> Json.String h) t.header));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.String c) row))
             t.rows) );
      ("paper_note", Json.String t.t_paper_note);
    ]

let series_json s =
  Json.Assoc
    [
      ("label", Json.String s.label);
      ( "points",
        Json.List
          (List.map
             (fun (x, y) ->
               Json.Assoc [ ("x", Json.Int x); ("y", Json.Float y) ])
             s.points) );
    ]

let figure_json f =
  Json.Assoc
    [
      ("kind", Json.String "figure");
      ("title", Json.String f.title);
      ("xlabel", Json.String f.xlabel);
      ("ylabel", Json.String f.ylabel);
      ("series", Json.List (List.map series_json f.series));
      ("paper_note", Json.String f.paper_note);
    ]

let schema = "osiris-bench/9"

let bench_json ~mode ~experiments ~micro ~metrics =
  Json.Assoc
    [
      ("schema", Json.String schema);
      ("mode", Json.String mode);
      ( "experiments",
        Json.List
          (List.map
             (fun (id, description, result, vm_hwm_kb) ->
               Json.Assoc
                 [
                   ("id", Json.String id);
                   ("description", Json.String description);
                   ("result", result);
                   ("vm_hwm_kb", Json.Int vm_hwm_kb);
                 ])
             experiments) );
      ( "micro",
        Json.List
          (List.map
             (fun (name, ns) ->
               Json.Assoc
                 [
                   ("name", Json.String name);
                   ( "ns_per_run",
                     match ns with Some v -> Json.Float v | None -> Json.Null
                   );
                 ])
             micro) );
      ("metrics", metrics);
    ]

let mbps ~bytes_count ~ns =
  if ns <= 0 then 0.0 else float_of_int bytes_count *. 8.0 *. 1e3 /. float_of_int ns

let sizes_1k_to_256k =
  List.map (fun k -> k * 1024) [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
