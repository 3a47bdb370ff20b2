(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Callbacks are
    scheduled at absolute or relative simulated times and executed in
    timestamp order; callbacks scheduled for the same instant run in the
    order they were scheduled. The engine is strictly single-threaded and,
    given the same inputs, fully deterministic.

    Same-instant ordering is pluggable: a {!chooser} installed with
    {!set_chooser} is consulted whenever two or more live callbacks are
    runnable at the same instant, turning each such tie into an explicit,
    recordable choice point (the hook {!Osiris_check} schedule exploration
    is built on). Without a chooser the engine keeps its historical FIFO
    tie-break, bit-for-bit.

    Events wait in one binary heap keyed on [(time, seq)]. Without a
    chooser, an event scheduled for the current instant skips the heap
    and joins a FIFO ring, the {e same-instant lane}, which dispatch
    drains after any heap entries at that instant (those carry lower
    seqs). Installing a chooser moves the lane back into the heap under
    its original seqs. The lane changes wall-clock speed only, never the
    dispatch order. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled or, once it has
    fired, rescheduled. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] arranges for [f ()] to run at [now t + delay].
    [delay] must be non-negative. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] arranges for [f ()] to run at absolute time
    [time], which must not be in the past. *)

val handle : (unit -> unit) -> handle
(** [handle f] is a handle for [f] that is not queued: nothing runs until
    it is armed with {!reschedule}. Long-lived actors (every process owns
    two) create their handles once and re-arm them for each event, so
    their steady state schedules without allocating. *)

val reschedule : t -> delay:Time.t -> handle -> unit
(** [reschedule t ~delay h] re-arms a handle whose event has already
    fired (or been cancelled), reusing the handle and its callback
    instead of allocating fresh ones — the cheap way to run a periodic
    timer. Consumes a sequence number exactly as {!schedule} does, so
    dispatch order is indistinguishable from a fresh [schedule] of the
    same closure. Raises [Invalid_argument] if [h] is still queued. *)

val reschedule_at : t -> time:Time.t -> handle -> unit
(** {!reschedule} at an absolute time. *)

val cancel : handle -> unit
(** Cancel a pending event. Cancelling an event that has already fired is a
    no-op. *)

val pending : t -> int
(** Number of events still queued, in the heap or the same-instant lane
    (including cancelled ones not yet drained). *)

val events_dispatched : t -> int
(** Total simulated events over the engine's lifetime: every live
    (non-cancelled) callback executed, plus the two events (timer and
    resume) of every sleep completed inline ({!sleep_inline}) and the
    resume of every sleep timer that ran its process in place
    ({!fuse_resume}) — the count the speed benchmarks report, the same
    whether a sleep completed inline, fused or through the queue. *)

val step : t -> bool
(** Execute the single next event. Returns [false] when the queue is
    empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run events in order until the queue drains, the clock passes [until],
    or [max_events] {e live} callbacks have executed — popping a
    cancelled handle does not consume budget. Events scheduled exactly
    at [until] still run. On return from a bounded run the clock is at
    [until] unless events at or before [until] remain unfired (a
    [max_events] budget can leave some), in which case it stays at the
    last dispatch so time never runs backwards.

    A run without [max_events] and without a chooser lets a process's
    sleep complete inline ({!sleep_inline}) when no other event could
    come first, and a sleep timer run its process in place of the resume
    ({!fuse_resume}) when nothing else is due at its instant; the
    [(time, seq)] stream, the clock and {!events_dispatched} are the
    same as if every event had gone through the queue. *)

val sleep_inline : t -> time:Time.t -> bool
(** [sleep_inline t ~time] completes, without queueing anything, a sleep
    whose timer would fire at [time], when that timer and the resume it
    arms would be the next two events of the current {!run}: [time] is
    strictly below every queued key and at or below the run's [until],
    the run has no [max_events], no chooser is installed and {!stop} was
    not requested. (The lane counts: an event due at the current instant
    is a queued key no later than [time].) It then sets the clock to
    [time] and consumes the two sequence numbers and two
    {!events_dispatched} those events would have, and returns [true];
    otherwise it changes nothing and returns [false]. {!step} never
    completes a sleep inline. Used by [Process.sleep]. *)

val fuse_resume : t -> bool
(** [fuse_resume t], called by a sleep timer's callback that is about to
    arm its process's resume at the current instant, tells whether the
    callback may run the process directly instead: the resume would be
    the current {!run}'s very next event, because nothing else is due at
    this instant (heap or lane) and the run has no [max_events], no
    chooser and no {!stop} request. It then consumes the resume's
    sequence number and counts its dispatch in {!events_dispatched}, and
    returns [true]; otherwise it changes nothing and returns [false].
    {!step} never fuses. Used by [Process.sleep]'s timer. *)

exception Stopped

val stop : t -> unit
(** Request that {!run} return after the current callback completes. *)

type chooser = now:Time.t -> count:int -> int
(** [choose ~now ~count] picks which of the [count >= 2] live callbacks
    runnable at instant [now] fires next, by index in scheduling (seq)
    order — index 0 reproduces the FIFO default. Must return a value in
    [\[0, count)]. *)

val set_chooser : t -> chooser option -> unit
(** Install (or, with [None], remove) the same-instant tie-breaker. The
    chooser is only consulted for instants with at least two live
    callbacks; cancelled events are never offered as candidates. *)
