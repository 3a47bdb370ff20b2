type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan; sum = 0.0 }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let count t = t.n
let mean t = t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.min
let max t = t.max
let sum t = t.sum

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n t.mean
    (stddev t) t.min t.max

(* Chan et al.'s parallel combination of Welford accumulators: exact in n,
   mean and sum, numerically stable in m2. *)
let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      if t.n > 0 then begin
        let na = float_of_int acc.n and nb = float_of_int t.n in
        let nt = na +. nb in
        let delta = t.mean -. acc.mean in
        acc.m2 <- acc.m2 +. t.m2 +. (delta *. delta *. na *. nb /. nt);
        acc.mean <- acc.mean +. (delta *. nb /. nt);
        acc.sum <- acc.sum +. t.sum;
        acc.min <- (if acc.n = 0 then t.min else Float.min acc.min t.min);
        acc.max <- (if acc.n = 0 then t.max else Float.max acc.max t.max);
        acc.n <- acc.n + t.n
      end)
    ts;
  acc

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    width : float;
    counts : int array; (* buckets + 2 overflow cells *)
    mutable total : int;
  }

  let create ~lo ~hi ~buckets =
    if buckets < 1 || hi <= lo then invalid_arg "Histogram.create";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      counts = Array.make (buckets + 2) 0;
      total = 0;
    }

  let[@inline] bucket_of h x =
    if x < h.lo then 0
    else if x >= h.hi then Array.length h.counts - 1
    else 1 + int_of_float ((x -. h.lo) /. h.width)

  let[@inline] add h x =
    let i = bucket_of h x in
    let i = Stdlib.min i (Array.length h.counts - 1) in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1

  let add_int h n = add h (float_of_int n)

  let count h = h.total

  let percentile h p =
    if h.total = 0 then nan
    else begin
      let target = int_of_float (ceil (p /. 100.0 *. float_of_int h.total)) in
      let target = Stdlib.max 1 (Stdlib.min target h.total) in
      let acc = ref 0 and result = ref h.hi in
      (try
         for i = 0 to Array.length h.counts - 1 do
           acc := !acc + h.counts.(i);
           if !acc >= target then begin
             result :=
               (if i = 0 then h.lo
                else if i = Array.length h.counts - 1 then h.hi
                else h.lo +. (float_of_int i *. h.width));
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let pp fmt h =
    Format.fprintf fmt "hist[%g,%g) n=%d p50=%g p99=%g" h.lo h.hi h.total
      (percentile h 50.0) (percentile h 99.0)

  (* Sum same-shape histograms (the shape of the first one); differently
     shaped inputs are skipped, since their buckets are incomparable. *)
  let merge hs =
    match hs with
    | [] -> invalid_arg "Histogram.merge: empty list"
    | first :: _ ->
        let merged =
          create ~lo:first.lo ~hi:first.hi
            ~buckets:(Array.length first.counts - 2)
        in
        List.iter
          (fun h ->
            if
              h.lo = first.lo && h.hi = first.hi
              && Array.length h.counts = Array.length first.counts
            then begin
              Array.iteri
                (fun i c -> merged.counts.(i) <- merged.counts.(i) + c)
                h.counts;
              merged.total <- merged.total + h.total
            end)
          hs;
        merged
end
