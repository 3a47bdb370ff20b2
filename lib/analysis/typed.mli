(** Typed analysis passes (R5–R7) over the compiler's [.cmt] artifacts.

    Where the syntactic lint ({!Lint}, R1–R4) pattern-matches the
    parsetree, these passes load the typedtree the normal dune build
    already wrote ([-bin-annot] is always on), so they see resolved
    module paths, inferred types, and attributes:

    - {b R5 — hot-path allocation freedom.} Every [hot <file>:<fn>]
      policy entry must be transitively allocation-free: no closure,
      tuple, record, array, or non-constant constructor construction;
      no boxed float/int64 bindings; no partial applications; no calls
      into functions that are neither analyzable, listed [alloc-free]
      in the policy, nor on the built-in primitive safe-list. The
      escape hatch is [[@osiris.alloc_ok "why"]] on the expression or
      binding — the justification string is mandatory.
    - {b R6 — clock-domain taint.} Values produced by [sim-time]
      sources (simulated microseconds) must not meet values produced by
      [wall-clock] sources in an arithmetic or comparison operator
      unless laundered through a [clock-conversion] function or
      justified with [[@osiris.clock_ok "why"]].
    - {b R7 — conservation coverage.} Every [Metrics.counter]
      registration in the scanned tree must have its final name
      component read (as a record field or accessor call) inside at
      least one [coverage-fn] function, or carry an [uncovered] policy
      entry with a justification.

    Stale-policy rot is itself an error: a [hot] entry naming a file or
    function that no longer exists is reported as an R5 violation. *)

type violation = Lint.violation = {
  rule : string;
  file : string;
  line : int;
  message : string;
}

val check_tree : Policy.t -> cmt_root:string -> violation list
(** Run R5/R6/R7 over every [.cmt] found under [cmt_root] (typically
    [_build/default]). All loaded modules participate in call
    resolution; R6/R7 verdicts apply only to modules whose recorded
    source file lives under a policy [scan] root, and R5 roots are the
    policy's [hot] entries. A [scan] root for which no source has a
    [.cmt] under [cmt_root] is reported as an R0 violation, so an unbuilt
    tree cannot pass as clean. Results are sorted by file, line, rule. *)
