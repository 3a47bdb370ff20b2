(** The checked-in lint policy ([olint.policy] at the repo root).

    The policy is the machine-checked statement of the project's
    interface discipline: which source files own which mutable fields of
    the host/board shared state (paper §3.1's one-writer-per-pointer
    rule), which modules are the declared accessors of board-visible
    state, which directories are scanned, which functions form the
    allocation-certified hot set, which names are clock-domain sources,
    and the (normally empty) per-file exemption lists. New modules opt
    in by appearing under a [scan] root; new shared state opts in with
    [own]/[shared] lines — nothing is implicit.

    Line-oriented syntax, [#] comments:
    {v
    scan lib                       # directory root to lint (repeatable)
    own head lib/board/desc_queue.ml   # field 'head': only this file may `<-` it
    shared irq_filter              # field mutable only in accessor files
    accessor lib/board/board.ml    # declared accessor of shared state
    allow catchall lib/foo.ml      # justification required after the '#'
                                   #   keys: catchall exit obj no-mli
    hot lib/sim/heap.ml:add        # R5: must be transitively allocation-free
    alloc-free Metrics.incr        # R5: certified external callee (# why)
    sim-time Engine.now            # R6: produces simulated time
    wall-clock Unix.gettimeofday   # R6: produces wall-clock time
    clock-conversion Time.to_float_s  # R6: named conversion, launders taint
    coverage-fn conservation       # R7: function counted as a conservation read
    uncovered sar.cells_pushed     # R7: counter exempt from coverage (# why)
    v}

    Exemption directives ([allow], [alloc-free], [uncovered]) must carry
    a trailing [# justification] comment or the policy does not parse. *)

type t = {
  scan : string list;  (** directory roots to lint *)
  own : (string * string list) list;
      (** field name → files allowed to mutate it (single-writer rule) *)
  shared : string list;  (** fields mutable only inside accessor files *)
  accessors : string list;  (** declared accessor files of shared state *)
  allow : (string * string list) list;  (** rule key → exempt files *)
  hot : (string * string) list;
      (** R5 hot set: (file, function) pairs that must be transitively
          allocation-free *)
  alloc_free : string list;
      (** R5: external callees certified allocation-free (["Module.fn"]
          or bare operator names) *)
  sim_time : string list;  (** R6: simulated-time sources (["Module.fn"]) *)
  wall_clock : string list;  (** R6: wall-clock sources *)
  clock_conversion : string list;
      (** R6: named conversions whose application launders clock taint *)
  coverage_fns : string list;
      (** R7: function names whose bodies count as conservation reads *)
  uncovered : string list;
      (** R7: counter names exempt from conservation coverage *)
}

val empty : t

val of_string : string -> t
(** Parse policy text. Raises [Failure] with a [line N:] prefix on
    malformed directives, unknown [allow] rule keys, and exemption lines
    missing their justification comment. *)

val load : string -> t
(** [of_string] on a file's contents. Raises [Sys_error] if unreadable. *)

val path_matches : string -> string -> bool
(** [path_matches policy_path file]: does [file] refer to the policy's
    path, comparing by whole trailing components so the lint works from
    any invocation directory? *)

val owners : t -> string -> string list option
(** Files allowed to mutate the field: [Some] of the [own] list, [Some]
    accessors for a [shared] field, [None] when the policy says nothing
    about the field. *)

val exempt : t -> rule:string -> file:string -> bool

val hot_functions : t -> file:string -> string list
(** Hot-set entries whose file component matches [file]. *)

val is_hot : t -> file:string -> fn:string -> bool

val uncovered_ok : t -> string -> bool
(** Is the counter name exempt from R7 conservation coverage? *)
