(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic element of the simulation (frame allocator scrambling,
    link skew jitter, error injection, workload generators) draws from an
    explicitly seeded [Rng.t], so whole-system runs are reproducible. *)

type t

val create : seed:int -> t
(** A generator seeded with [seed]; equal seeds yield equal streams. *)

val split : t -> t
(** A new generator whose stream is a deterministic function of the parent's
    state; advances the parent. Use to give subsystems independent
    streams. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: true with probability [p], from
    the same draw. It returns no float, so unlike a [float] draw compared
    at the call site it allocates nothing. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
