(** Cooperative simulation processes.

    A process is an ordinary OCaml function run under an effect handler that
    lets it suspend itself and be resumed later by the engine. Processes
    model the concurrent actors of the simulated system: the host CPU
    threads, the adaptor's transmit and receive microprocessors, the DMA
    controller, link pipelines, and so on.

    All suspension primitives ({!sleep}, {!park}, and the blocking
    operations of {!Mailbox}, {!Resource}, {!Signal}) may only be called
    from inside a function started with {!spawn}; calling them elsewhere
    raises [Not_in_process].

    Each process owns two reusable engine handles, one that resumes it and
    one for its sleep timer, and one slot for its continuation, so a
    steady-state sleep or wake allocates nothing but the continuation
    block the runtime builds when a fiber suspends, and a sleep that
    completes inline allocates nothing at all. A wake arms the resume at
    the current instant, which the engine keeps in its same-instant
    lane rather than its heap. *)

exception Not_in_process

type t
(** A spawned process. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> unit
(** [spawn eng f] starts [f] as a process at the current simulated time.
    Uncaught exceptions from [f] are re-raised out of the engine loop with
    the process [name] attached for diagnosis. *)

val sleep : Engine.t -> Time.t -> unit
(** Suspend the calling process for the given simulated duration. The
    engine must be the one the process was spawned on. Costs two events:
    the timer at [now + d], then the resume at that instant. When those
    two would be the next events of the current {!Engine.run} anyway,
    the sleep completes inline ({!Engine.sleep_inline}): the clock, the
    sequence numbers, {!Engine.events_dispatched} and the generation end
    up exactly as the two events would have left them, and nothing is
    queued or allocated. Otherwise the process parks; when its timer
    fires with nothing else due at that instant, the timer runs the
    process itself instead of queueing the resume
    ({!Engine.fuse_resume}), and the resume still counts as one
    dispatched event. *)

val yield : Engine.t -> unit
(** Suspend and immediately reschedule at the same simulated time, letting
    other events at this instant run first. *)

(** {2 Blocking}

    A blocking primitive records a waker — the pair [(self (), generation
    (self ()))] — wherever the event it waits for will look, then calls
    {!park}. Whoever fires the event calls {!wake} with that pair; the
    process then resumes as a fresh engine event at the instant of the
    wake. *)

val self : unit -> t
(** The calling process. Raises [Not_in_process] outside one. *)

val generation : t -> int
(** The generation a waker for the process's next {!park} carries. Every
    wake advances it. *)

val park : unit -> unit
(** Suspend the calling process until a {!wake} with the waker recorded
    before parking. *)

val wake : t -> int -> unit
(** [wake p gen] resumes [p], parked with a waker of generation [gen],
    at the current instant. Raises [Invalid_argument "Process: resumer
    invoked twice"] if [gen] is not [p]'s current generation: the waker
    was already used, or belongs to an earlier park. *)

exception Process_failure of string * exn
(** Raised out of the engine loop when a named process dies with an
    uncaught exception. *)
