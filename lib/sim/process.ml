open Effect
open Effect.Deep

exception Not_in_process
exception Process_failure of string * exn

(* The one suspension effect. It carries no argument, so performing it
   allocates nothing of ours: what a blocked process waits for is
   recorded before it parks (a waker in some queue, or its sleep
   timer). *)
type _ Effect.t += Park : unit Effect.t

type t = {
  eng : Engine.t;
  mutable cont : (unit, unit) continuation array;
      (* where the parked fiber continues: empty until the first park
         (in [spawn]), then one reused slot *)
  mutable gen : int; (* wakes so far; a waker must carry the current one *)
  mutable resume : Engine.handle; (* continues [cont] *)
  mutable timer : Engine.handle; (* ends a sleep by arming [resume] *)
  mutable on_park : ((unit, unit) continuation -> unit) option;
  mutable me : t option;
}

(* The process whose fiber is running, if any: set around every
   [continue], so plain event callbacks see [None]. *)
let current : t option ref = ref None

let self () = match !current with Some p -> p | None -> raise Not_in_process
let generation p = p.gen

let store p k =
  if Array.length p.cont = 0 then
    (p.cont <- [| k |]
    [@osiris.alloc_ok "first park only: the slot is then reused"])
  else p.cont.(0) <- k

let run p () =
  let prev = !current in
  current := p.me;
  match continue p.cont.(0) () with
  | () -> current := prev
  | exception e ->
      current := prev;
      raise e

let wake_now p =
  p.gen <- p.gen + 1;
  Engine.reschedule p.eng ~delay:0 p.resume

(* A sleep timer: arm the resume at this instant or, when the engine
   says nothing could run between the two, be the resume. *)
let end_sleep p =
  if Engine.fuse_resume p.eng then begin
    p.gen <- p.gen + 1;
    (run p ()
    [@osiris.alloc_ok
      "dispatch: what the fiber allocates is the process's budget, not \
       the engine's"])
  end
  else wake_now p

let wake p gen =
  if gen <> p.gen then
    (invalid_arg "Process: resumer invoked twice"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  wake_now p

let park () =
  match
    (perform Park
    [@osiris.alloc_ok
      "the runtime allocates the continuation block; the handler returns \
       the process's preallocated [Some] and stores the continuation in \
       its one reused slot"])
  with
  | () -> ()
  | exception Effect.Unhandled _ -> raise Not_in_process

let idle = Engine.handle ignore

let spawn eng ?(name = "anon") f =
  let p =
    { eng; cont = [||]; gen = 0; resume = idle; timer = idle; on_park = None;
      me = None }
  in
  p.me <- Some p;
  p.resume <- Engine.handle (run p);
  p.timer <- Engine.handle (fun () -> end_sleep p);
  p.on_park <- Some (store p);
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun exn -> raise (Process_failure (name, exn)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> (p.on_park : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }
  in
  (* Run the new fiber up to a park before any of [f]: from then on
     every activation, the first included, is a [continue] from
     [resume], armed here at the current instant. *)
  match_with
    (fun () ->
      perform Park;
      f ())
    () handler;
  Engine.reschedule eng ~delay:0 p.resume

let sleep eng d =
  if d < 0 then
    (invalid_arg "Process.sleep: negative duration"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  let p = self () in
  if eng != p.eng then
    (invalid_arg "Process.sleep: not the engine the process runs on"
    [@osiris.alloc_ok "cold error path: raises, never returns"]);
  (* When nothing else could run before the sleep ends, the process
     continues inline; the engine accounts for the timer and resume
     events, and the wake they would have performed bumps [gen].
     Otherwise the timer is queued at [now + d]; it arms the resume at
     that instant, or runs the process itself ([end_sleep]). *)
  if Engine.sleep_inline eng ~time:(Engine.now eng + d) then
    p.gen <- p.gen + 1
  else begin
    Engine.reschedule eng ~delay:d p.timer;
    park ()
  end

let yield eng = sleep eng 0
