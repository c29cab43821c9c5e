(** Exact order statistics over raw samples.  Nothing here is sampled
    or bucketed, so a percentile is one of the measured values. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile [p] (0 < p <= 100) of a sorted array. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(** Samples strictly above the nearest-rank percentile [p]: the report
    states it so a tail percentile is read with its support. *)
let beyond s p =
  let n = Array.length s in
  if n = 0 then 0 else n - (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let median l =
  let s = sorted (Array.of_list l) in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(** First and third quartiles as Python's [statistics.quantiles(x, n=4)]
    gives them (the default "exclusive" method), so the spreads printed
    here match the ones a reader recomputes from the result files. *)
let quartiles l =
  let s = sorted (Array.of_list l) in
  let ld = Array.length s in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(** Interquartile range as a share of the median (0 for a zero median). *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
