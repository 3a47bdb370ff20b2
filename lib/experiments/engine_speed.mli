(** Engine macro-benchmark: events per CPU second over the full
    star-topology datapath.

    Runs a seeded workload for a fixed budget of live events, measures
    the dispatch rate, simulated cells forwarded per second and
    simulated payload bytes per second, and checks that (a) the workload
    delivered PDUs without a switch drop and (b) the engine retains no
    memory proportional to the number of dispatched events. *)

type outcome = {
  events : int;  (** live events dispatched per timed segment *)
  wall_s : float;  (** wall time across all timed segments *)
  cpu_s : float;
      (** user CPU time of the best (fastest) segment; the rates below
          use this *)
  events_per_s : float;
  cells_forwarded : int;
  cells_per_s : float;
  bytes_per_s : float;  (** forwarded cell payload bytes per wall second *)
  delivered_pdus : int;
  delivered_bytes : int;
  final_clock : Osiris_sim.Time.t;
  cells_in : int;
  dropped : int;
  live_words_growth : int;
      (** major-heap words retained across all timed segments *)
  minor_words_per_event : float;
      (** minor-heap words allocated per dispatched event, best
          segment: the R5 hot-path allocation lint's rent, in numbers *)
}

val run :
  ?events:int ->
  ?senders:int ->
  ?msg_size:int ->
  ?seed:int ->
  unit ->
  outcome * string list
(** One measurement at a given event budget (default 1M): the outcome
    and the violations — nothing delivered, a switch drop or a
    live-words leak. *)

val figure : unit -> Report.figure
(** The BENCH.json figure: events/s over the event-budget sweep,
    forwarded-cell and payload-byte rates, live-words growth and minor
    words per event. Raises [Failure] on any violation. *)
