(* Reference model of the engine's event queue for differential tests of
   [Osiris_sim.Heap]: a list kept sorted by (key, seq), with the same
   pop floor. Obviously correct, O(n) per add. *)

type 'a t = { mutable entries : (int * int * 'a) list; mutable floor : int }

let create () = { entries = []; floor = 0 }
let length t = List.length t.entries
let floor t = t.floor

let add t ~key ~seq v =
  if key < t.floor then invalid_arg "Ref_queue.add: below the pop floor";
  let rec insert = function
    | ((k, s, _) as e) :: tl when k < key || (k = key && s < seq) ->
        e :: insert tl
    | l -> (key, seq, v) :: l
  in
  t.entries <- insert t.entries

let pop_min t =
  match t.entries with
  | [] -> None
  | ((k, _, _) as e) :: tl ->
      t.entries <- tl;
      t.floor <- k;
      Some e

let next_key t = match t.entries with [] -> max_int | (k, _, _) :: _ -> k
