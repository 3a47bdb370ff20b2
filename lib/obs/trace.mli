(** Structured trace subsystem.

    Events are typed records carrying a simulation timestamp (integer
    nanoseconds — the emitting site supplies it, so pure modules can
    trace too), a category and a rendered message. Emitted events land in
    a bounded in-memory ring buffer and flow to the active sinks:

    - a stderr pretty-printer, gated per category by [OSIRIS_TRACE]
      (comma-separated category names, or ["all"]) or {!enable};
    - a JSONL file (one JSON object per line) opened from
      [OSIRIS_TRACE_JSON=<path>] or {!set_json_path}, which captures
      {e every} category;
    - arbitrary callbacks installed with {!on_event}.

    Tracing is off by default, and a site guarded with {!on} costs one
    array read and one branch when disabled. The
    environment is consulted once, lazily; explicit {!enable}/{!disable}
    calls force that initialization first so tests cannot race the env
    latch, and {!reset_for_testing} restores a clean, env-independent
    state. *)

type category =
  | Board_tx  (** transmit processor: chain loads, completions *)
  | Board_rx  (** receive processor: reassembly outcomes, drops *)
  | Driver  (** host channel drivers *)
  | Protocol  (** IP/UDP events *)
  | Link  (** striping, skew, loss *)
  | Fault  (** injected faults and the recovery they trigger *)

val category_name : category -> string
val all : category list

type event = {
  seq : int;  (** 1-based emission index since start/reset *)
  t_ns : int;  (** simulated time of the emitting site *)
  cat : category;
  msg : string;
}

val enable : category -> unit
val disable : category -> unit
val enable_all : unit -> unit

val enabled : category -> bool
(** True when any sink would observe an event of this category. Consults
    the environment first if nothing has yet. *)

val on : category -> bool
(** The guard for per-cell and per-PDU trace sites: one array read, no
    allocation. Never false when {!enabled} would be true; before the
    environment has been consulted it is true for every category, so the
    first guarded {!emitf} consults it and settles every later [on]. *)

val emit : category -> now:int -> string -> unit
(** Emit one event (no trailing newline needed in [msg]). *)

val emitf : category -> now:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant; the format is only evaluated when enabled. *)

(** {2 Sinks} *)

val set_json_path : string option -> unit
(** Open (or close, with [None]) the JSONL sink. Replaces any previously
    open JSONL file. *)

val on_event : (event -> unit) -> unit
(** Install a callback sink receiving every emitted event. Removed only
    by {!reset_for_testing}. *)

(** {2 Inspection} *)

val recent : unit -> event list
(** The ring buffer's contents, oldest first (at most the last 1024
    events). *)

val events_emitted : unit -> int

val pp_event : Format.formatter -> event -> unit
val event_json : event -> Json.t

(** {2 Lifecycle} *)

val init_from_env : unit -> unit
(** Parse [OSIRIS_TRACE] / [OSIRIS_TRACE_JSON]. Called lazily by the
    first emit or configuration call; idempotent. *)

val reset_for_testing : unit -> unit
(** Disable every category, close the JSONL sink, drop callback sinks and
    the ring buffer, and mark the environment as already consulted so it
    cannot resurface mid-test. *)
