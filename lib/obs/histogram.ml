(** Log-bucketed latency histogram.

    Buckets are geometric octaves ([2^(e-1), 2^e)) split linearly into
    [subs] sub-buckets, HdrHistogram style: recording is O(1) and the
    relative quantization error of any reported quantile is bounded by
    roughly [1/subs] (~1.6% with [subs = 64]).  Count, sum, min and max
    are tracked exactly, so p0/p100 and the mean are exact.

    Percentiles follow the same rank convention as
    [Simurgh_sim.Stats.percentile]: the p-quantile sits at fractional
    rank [p/100 * (count-1)] with linear interpolation between adjacent
    ranks; within a bucket, samples are assumed uniformly spread. *)

(* Sub-buckets per octave: power of two so the index math stays exact. *)
let subs = 64

(* Representable octaves: exponents [emin, emax] of Float.frexp cover
   values from ~3e-5 cycles up to 2^64; everything outside clamps to the
   first/last bucket. *)
let emin = -14
let emax = 64
let nbuckets = (emax - emin + 1) * subs

(* The float statistics sit in an all-float record (stored unboxed), so
   [record] allocates nothing. *)
type moments = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = { counts : int array; mutable count : int; m : moments }

let create () =
  {
    counts = Array.make nbuckets 0;
    count = 0;
    m = { sum = 0.0; min_v = infinity; max_v = neg_infinity };
  }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.count <- 0;
  t.m.sum <- 0.0;
  t.m.min_v <- infinity;
  t.m.max_v <- neg_infinity

let copy t =
  let m = t.m in
  {
    counts = Array.copy t.counts;
    count = t.count;
    m = { sum = m.sum; min_v = m.min_v; max_v = m.max_v };
  }

(* Bucket index of a (finite, >= 0) value. *)
let index_of v =
  if v <= 0.0 then 0
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1): the octave is [2^(e-1), 2^e). *)
    if e < emin then 0
    else if e > emax then nbuckets - 1
    else
      let sub = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int subs) in
      let sub = if sub >= subs then subs - 1 else if sub < 0 then 0 else sub in
      ((e - emin) * subs) + sub
  end

(* Lower bound and width of bucket [i]. *)
let bucket_bounds i =
  let e = emin + (i / subs) and sub = i mod subs in
  let lo_octave = Float.ldexp 1.0 (e - 1) in
  let width = lo_octave /. float_of_int subs in
  (lo_octave +. (float_of_int sub *. width), width)

let record t v =
  if Float.is_finite v then begin
    let i = index_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.m.sum <- t.m.sum +. v;
    if v < t.m.min_v then t.m.min_v <- v;
    if v > t.m.max_v then t.m.max_v <- v
  end

let count t = t.count
let sum t = t.m.sum
let min_value t = if t.count = 0 then 0.0 else t.m.min_v
let max_value t = if t.count = 0 then 0.0 else t.m.max_v
let mean t = if t.count = 0 then 0.0 else t.m.sum /. float_of_int t.count

(* Estimated value of the 0-indexed order statistic [k]; exact at the
   ends, uniform-within-bucket in the interior. *)
let value_at_rank t k =
  if k <= 0 then min_value t
  else if k >= t.count - 1 then max_value t
  else begin
    let cum = ref 0 and i = ref 0 and res = ref (max_value t) in
    (try
       while !i < nbuckets do
         let c = t.counts.(!i) in
         if c > 0 && k < !cum + c then begin
           let lo, width = bucket_bounds !i in
           let pos = (float_of_int (k - !cum) +. 0.5) /. float_of_int c in
           res := lo +. (width *. pos);
           raise Exit
         end;
         cum := !cum + c;
         incr i
       done
     with Exit -> ());
    (* clamp into the observed range: bucket edges can slightly
       over/undershoot the true extremes *)
    Float.min (Float.max !res t.m.min_v) t.m.max_v
  end

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let lo = int_of_float (Float.floor rank) in
    let lo = if lo < 0 then 0 else if lo > t.count - 1 then t.count - 1 else lo in
    let frac = rank -. float_of_int lo in
    let v_lo = value_at_rank t lo in
    if frac <= 0.0 then v_lo
    else v_lo +. (frac *. (value_at_rank t (lo + 1) -. v_lo))
  end

(** [merge a b] is a fresh histogram holding both sample sets. *)
let merge a b =
  let t = copy a in
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
  t.count <- a.count + b.count;
  t.m.sum <- a.m.sum +. b.m.sum;
  t.m.min_v <- Float.min a.m.min_v b.m.min_v;
  t.m.max_v <- Float.max a.m.max_v b.m.max_v;
  t

(** Summary used by the JSON export. *)
let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("p50", Json.Float (percentile t 50.0));
      ("p90", Json.Float (percentile t 90.0));
      ("p99", Json.Float (percentile t 99.0));
      ("p999", Json.Float (percentile t 99.9));
    ]
