#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#   bash benchmark/run.sh --workload ycsb-a --seed 1 --seconds 20 --trace 0
# Without --workload (or --compare/--smoke) every workload runs, one
# process each, one after another.  Build output goes to stderr, so the
# last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact, temporary files included, inside the checkout
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./benchmark/main.exe >&2
exe=_build/default/benchmark/main.exe
case " $* " in
  *" --workload "* | *" --compare "* | *" --smoke "*) exec "$exe" "$@" ;;
esac
status=0
for w in ycsb-a meta-churn data-openloop recovery; do
  "$exe" --workload "$w" "$@" || status=1
done
exit "$status"
