#!/usr/bin/env bash
# Host-time profile of one benchmark workload:
#   bash scripts/prof.sh WORKLOAD     (or make prof W=...)
# Builds the benchmark and the sampler in scripts/pcprof.c, runs the
# workload once with the sampler preloaded (--seed 1 --seconds 8), maps
# every sampled program counter to its enclosing symbol with `nm -n`,
# and prints the 30 symbols with the largest share of samples (self
# time) of user CPU time.  Shared-library samples are named by dladdr,
# or, in unexported library code, after the nearest libc entry point
# (see pcprof.c).  The run samples the whole process: set-up, the
# timed phase, the percentile sort, recovery and fsck, so its shares
# are not shares of the benchmark's host_ns_per_op.
set -euo pipefail
w=${1:?usage: prof.sh WORKLOAD}
cd "$(dirname "$0")/.."
out=_build/prof
mkdir -p "$out"
dune build --root . --display quiet ./benchmark/main.exe
exe=_build/default/benchmark/main.exe
cc -shared -fPIC -O2 -o "$out/pcprof.so" scripts/pcprof.c -ldl
PCPROF_OUT="$out/$w.samples" LD_PRELOAD="$PWD/$out/pcprof.so" \
  "$exe" --workload "$w" --seed 1 --seconds 8 > "$out/$w.json"
export LC_ALL=C
{
  # symbol starts sort before samples at the same address
  nm -n "$exe" | awk '$2 ~ /^[tTwW]$/ { print $1, 0, $3 }'
  grep -v '^=' "$out/$w.samples" | sed 's/$/ 1/'
} | sort | awk '$2 == 0 { sym = $3; next } { print sym }' > "$out/$w.syms"
grep '^=' "$out/$w.samples" | cut -c3- >> "$out/$w.syms"
total=$(wc -l < "$out/$w.syms")
echo "prof: $w, $total samples at 1 kHz of user CPU time"
sort "$out/$w.syms" | uniq -c | sort -rn | head -n 30 \
  | awk -v n="$total" '{ printf "%6.2f%%  %s\n", 100 * $1 / n, $2 }'
echo "prof: by module (OCaml symbols by compilation unit, everything else as C)"
awk '{ m = "C"; if ($0 ~ /^caml[A-Z]/) { m = substr($0, 5); sub(/\..*/, "", m) } print m }' \
  "$out/$w.syms" | sort | uniq -c | sort -rn | head -n 12 \
  | awk -v n="$total" '{ printf "%6.2f%%  %s\n", 100 * $1 / n, $2 }'
