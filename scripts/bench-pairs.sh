#!/usr/bin/env bash
# Paired benchmark runs of a base revision against the working tree:
#   bash scripts/bench-pairs.sh WORKLOAD BASE [N]      (or make bench-pairs)
# Builds BASE in a git worktree under _build/bench-pairs/, then runs N
# pairs of `benchmark/run.sh --workload WORKLOAD` (base and working tree,
# alternating which side runs first) at seed 1 and N more at the hold-out
# seed 2, each with the benchmark's default run length.  For each seed it
# prints `benchmark/run.sh --compare` and, for every end-to-end metric,
# how many pairs the working tree wins: a gain is shown when it wins at
# least nine tenths of the pairs (ties count for neither) and the medians
# differ by more than the base's interquartile range.  Needs jq.
set -euo pipefail
w=${1:?usage: bench-pairs.sh WORKLOAD BASE [N]}
base=${2:?usage: bench-pairs.sh WORKLOAD BASE [N]}
n=${3:-10}
cd "$(dirname "$0")/.."
root=$PWD
command -v jq > /dev/null || { echo "bench-pairs: needs jq" >&2; exit 2; }
rev=$(git rev-parse --verify "$base^{commit}")
wt=$root/_build/bench-pairs/base
out=$root/_build/bench-pairs/$w
git worktree prune
if [ -e "$wt/.git" ]; then
  git -C "$wt" checkout -q --detach "$rev"
else
  mkdir -p "$(dirname "$wt")"
  git worktree add -q --detach "$wt" "$rev"
fi
rm -rf "$out"
mkdir -p "$out"
run() { # side dir seed i
  bash "$2/benchmark/run.sh" --workload "$w" --seed "$3" --out "$out/$1-s$3-$4.json" > /dev/null
}
for seed in 1 2; do
  for i in $(seq 1 "$n"); do
    echo "bench-pairs: $w seed $seed pair $i of $n" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run base "$wt" "$seed" "$i"; run change "$root" "$seed" "$i"
    else
      run change "$root" "$seed" "$i"; run base "$wt" "$seed" "$i"
    fi
  done
done
status=0
for seed in 1 2; do
  a=() b=()
  for i in $(seq 1 "$n"); do
    a+=("$out/base-s$seed-$i.json")
    b+=("$out/change-s$seed-$i.json")
  done
  echo "== $w, seed $seed: A = $base ($rev), B = working tree, $n pairs"
  bash benchmark/run.sh --compare "${a[@]}" -- "${b[@]}" || status=1
  jq -rn --slurpfile spec BENCHMARK.json --slurpfile a <(cat "${a[@]}") \
    --slurpfile b <(cat "${b[@]}") '
    def quant(p): sort as $s | ($s | length) as $k | (($k - 1) * p) as $h
      | ($h | floor) as $l
      | $s[$l] + ($h - $l) * ($s[if $l + 1 < $k then $l + 1 else $l end] - $s[$l]);
    $spec[0].end_to_end[] | .name as $m | (.better == "higher") as $hi
    | [$a[] | .metrics[$m].value] as $x | [$b[] | .metrics[$m].value] as $y
    | [range(0; $x | length) | select(if $hi then $y[.] > $x[.] else $y[.] < $x[.] end)]
      as $won
    | [range(0; $x | length) | select($y[.] == $x[.])] as $tied
    | ($x | quant(0.5)) as $mx | ($y | quant(0.5)) as $my
    | (($x | quant(0.75)) - ($x | quant(0.25))) as $iqr
    | "  \($m): B wins \($won | length) of \($x | length) pairs (\($tied | length) tied); "
      + "median A \($mx), B \($my); A IQR \($iqr); gain "
      + (if ($won | length) * 10 >= 9 * ($x | length) and (($my - $mx) | fabs) > $iqr
         then "shown" else "not shown" end)'
done
exit "$status"
