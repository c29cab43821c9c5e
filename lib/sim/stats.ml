(** Small numeric helpers for benchmark reporting. *)

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) ** 2.0)) 0.0 a in
    sqrt (acc /. float_of_int (n - 1))

(** Interpolated percentile: the p-quantile sits at fractional rank
    [p/100 * (n-1)] of the sorted sample, linearly interpolated between
    the adjacent order statistics (so p0/p100 are the exact extremes).
    Sorting uses [Float.compare], which totally orders NaN instead of
    scrambling the sort the way polymorphic [compare]'s IEEE [<] would. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy a in
    Array.sort Float.compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let lo = if lo < 0 then 0 else if lo > n - 1 then n - 1 else lo in
    let frac = rank -. float_of_int lo in
    if frac <= 0.0 || lo >= n - 1 then sorted.(lo)
    else sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

let min_max a =
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (infinity, neg_infinity) a
