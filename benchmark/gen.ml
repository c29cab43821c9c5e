(** Input generation for the benchmark, kept inside the benchmark so a
    change to the library cannot change what the workloads ask for.

    Every stream is a splitmix64 generator derived from a trial's seed
    (itself derived from [--seed]) and a stream id; keys, op types,
    Poisson gaps and payload tags are drawn from these streams before
    the trial's timing starts. *)

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** The generator of stream [stream] under [seed]: streams of one seed
    are independent, and a seed never shares a stream with another. *)
let rng ~seed stream =
  { s = mix (Int64.add (mix (Int64.of_int seed)) (Int64.mul golden (Int64.of_int (stream + 1)))) }

(** The seed of trial [k] of a run under [seed]: a run pools trials on
    distinct inputs, all drawn from its own seed. *)
let trial_seed ~seed k = Int64.to_int (mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int (k + 1))))

let next r =
  r.s <- Int64.add r.s golden;
  mix r.s

(** Uniform in [0, bound). *)
let int r bound =
  if bound <= 0 then invalid_arg "Gen.int";
  Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

(** Uniform in [0, 1). *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

(** A unit-mean exponential: one Poisson inter-arrival gap, to be scaled
    by the mean gap of the offered rate. *)
let exp1 r = -.log (1.0 -. float r)

(** Fisher–Yates, in place. *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** Zipf over [0, n) with exponent [theta], by Gray et al.'s method (the
    YCSB generator): rank 0 is the most popular item. *)
type zipf = { n : int; theta : float; zetan : float; eta : float; alpha : float }

let zipf ?(theta = 0.99) n =
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    theta;
    zetan;
    alpha = 1.0 /. (1.0 -. theta);
    eta = (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta 2 /. zetan));
  }

let zipf_rank z r =
  let u = float r in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** z.theta) then 1
  else
    let v = int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)) in
    max 0 (min (z.n - 1) v)

(** Scrambled Zipf: the same skew with the hot items spread over the
    key space. *)
let zipf_scrambled z r =
  Int64.to_int (Int64.unsigned_rem (mix (Int64.of_int (zipf_rank z r))) (Int64.of_int z.n))
