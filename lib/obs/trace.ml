(* Structured trace subsystem.

   Events are typed records carrying the simulation time (nanoseconds),
   a category and a rendered message. Emitted events land in a bounded
   ring buffer (for post-mortem inspection from tests and debuggers) and
   flow to the active sinks:

     - stderr pretty-printer, per category, controlled by OSIRIS_TRACE
       ("all" or a comma list of category names) or enable/disable;
     - a JSONL file, one event object per line, controlled by
       OSIRIS_TRACE_JSON=<path> or [set_json_path] — this sink captures
       every category;
     - arbitrary callbacks installed with [on_event].

   The environment is consulted once, lazily; explicit enable/disable
   calls force that initialization first, so tests can never race the
   env latch ([reset_for_testing] restores a clean, env-independent
   state). *)

type category = Board_tx | Board_rx | Driver | Protocol | Link | Fault

let category_name = function
  | Board_tx -> "board-tx"
  | Board_rx -> "board-rx"
  | Driver -> "driver"
  | Protocol -> "protocol"
  | Link -> "link"
  | Fault -> "fault"

let all = [ Board_tx; Board_rx; Driver; Protocol; Link; Fault ]

type event = { seq : int; t_ns : int; cat : category; msg : string }

let ring_capacity = 1024
let ring : event option array = Array.make ring_capacity None
let ring_next = ref 0
let total = ref 0

(* Categories routed to the stderr pretty-printer. *)
let stderr_cats : (category, unit) Hashtbl.t = Hashtbl.create 8
let json_oc : out_channel option ref = ref None
let sinks : (event -> unit) list ref = ref []
let initialized = ref false

let index = function
  | Board_tx -> 0
  | Board_rx -> 1
  | Driver -> 2
  | Protocol -> 3
  | Link -> 4
  | Fault -> 5

(* Per category: would any sink observe an event? Every entry stays true
   until the environment has been consulted, so the first guarded site
   takes the slow path through [enabled], which consults it. *)
let live = Array.make (List.length all) true

let refresh () =
  List.iter
    (fun c ->
      live.(index c) <-
        Hashtbl.mem stderr_cats c || !json_oc <> None || !sinks <> [])
    all

let on c = live.(index c)

let close_json () =
  match !json_oc with
  | None -> ()
  | Some oc ->
      json_oc := None;
      close_out_noerr oc

let open_json path =
  close_json ();
  json_oc := Some (open_out path)

let parse_spec spec enable1 =
  match spec with
  | "all" -> List.iter enable1 all
  | spec ->
      String.split_on_char ',' spec
      |> List.iter (fun name ->
             List.iter
               (fun c -> if category_name c = String.trim name then enable1 c)
               all)

let apply_env () =
  (match Sys.getenv_opt "OSIRIS_TRACE" with
  | None | Some "" -> ()
  | Some spec -> parse_spec spec (fun c -> Hashtbl.replace stderr_cats c ()));
  match Sys.getenv_opt "OSIRIS_TRACE_JSON" with
  | None | Some "" -> ()
  | Some path -> open_json path

(* Explicit configuration forces env initialization first, so a later
   first [enabled] probe can never override what a test set up. *)
let ensure_init () =
  if not !initialized then begin
    initialized := true;
    apply_env ();
    refresh ()
  end

let enable c =
  ensure_init ();
  Hashtbl.replace stderr_cats c ();
  refresh ()

let disable c =
  ensure_init ();
  Hashtbl.remove stderr_cats c;
  refresh ()

let enable_all () = List.iter enable all

let set_json_path p =
  ensure_init ();
  (match p with Some path -> open_json path | None -> close_json ());
  refresh ()

let on_event f =
  ensure_init ();
  sinks := f :: !sinks;
  refresh ()

let init_from_env () = ensure_init ()

let enabled c =
  ensure_init ();
  on c

let events_emitted () = !total

let recent () =
  let out = ref [] in
  for i = 0 to ring_capacity - 1 do
    match ring.((!ring_next + i) mod ring_capacity) with
    | Some ev -> out := ev :: !out
    | None -> ()
  done;
  List.rev !out

let reset_for_testing () =
  initialized := true;
  Hashtbl.reset stderr_cats;
  close_json ();
  sinks := [];
  Array.fill ring 0 ring_capacity None;
  ring_next := 0;
  total := 0;
  refresh ()

let pp_event fmt (ev : event) =
  Format.fprintf fmt "[%10.2fus %s] %s" (float_of_int ev.t_ns /. 1e3)
    (category_name ev.cat) ev.msg

let event_json (ev : event) =
  Json.Assoc
    [
      ("seq", Json.Int ev.seq);
      ("t_ns", Json.Int ev.t_ns);
      ("t_us", Json.Float (float_of_int ev.t_ns /. 1e3));
      ("cat", Json.String (category_name ev.cat));
      ("msg", Json.String ev.msg);
    ]

let emit c ~now msg =
  if enabled c then begin
    incr total;
    let ev = { seq = !total; t_ns = now; cat = c; msg } in
    ring.(!ring_next) <- Some ev;
    ring_next := (!ring_next + 1) mod ring_capacity;
    if Hashtbl.mem stderr_cats c then
      Printf.eprintf "[%10.2fus %s] %s\n%!"
        (float_of_int ev.t_ns /. 1e3)
        (category_name c) msg;
    (match !json_oc with
    | Some oc ->
        Json.to_channel oc (event_json ev);
        output_char oc '\n';
        flush oc
    | None -> ());
    List.iter (fun f -> f ev) !sinks
  end

(* A private sink formatter for the disabled branch: ikfprintf needs a
   formatter but must not thread the shared Format.str_formatter (whose
   buffer other code may be using concurrently). *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let emitf c ~now fmt =
  if enabled c then Format.kasprintf (fun msg -> emit c ~now msg) fmt
  else Format.ikfprintf (fun _ -> ()) null_formatter fmt
