(** Streaming statistics (Welford) and fixed-bucket histograms, used by the
    experiment harness to summarize latencies, queue depths and rates. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
(** Sample variance; 0 for fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val sum : t -> float

val pp : Format.formatter -> t -> unit
(** "n=… mean=… sd=… min=… max=…". *)

val merge : t list -> t
(** Combine accumulators as if every observation had been fed to one
    (Chan's parallel Welford combination). The inputs are not modified. *)

(** Histogram with uniform buckets over [\[lo, hi)]; out-of-range samples go
    to the two overflow buckets. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  val add : h -> float -> unit

  val add_int : h -> int -> unit
  (** [add_int h n] is [add h (float_of_int n)] without boxing the
      float: for per-cell samples. *)

  val count : h -> int

  val percentile : h -> float -> float
  (** [percentile h p] for [p] in [\[0,100\]]: the upper edge of the bucket
      containing the [p]-th percentile observation. *)

  val pp : Format.formatter -> h -> unit

  val merge : h list -> h
  (** Sum same-shape histograms into a fresh one (the shape of the first;
      differently shaped inputs are skipped). Raises [Invalid_argument] on
      an empty list. *)
end
