.PHONY: all build test check bench bench-pairs prof data numa secure figs-gate fsck races clean

all: build

build:
	dune build

test: build
	dune runtest

# Full gate: build + unit/property/differential tests (four POSIX-suite
# passes: default, striped, log-ring, range) + a quick smoke run of the
# region data-path microbenchmark (writes BENCH_region.json), the
# bounded crash-image explorer / media-fault / checker experiment
# (including the log-ring rename machines and the crash-during-recovery
# re-entrancy machines), the metadata-scalability sweep (writes
# BENCH_scale.json with the 7d log-ring curve), the data-path scaling +
# open-loop experiment (writes BENCH_data.json), the parallel
# mark-and-sweep recovery figure (writes BENCH_recovery.json) and the
# multi-region NUMA bandwidth figure (writes BENCH_numa.json) and the
# security-plane overhead sweep with its <=15% protected-path gate
# (writes BENCH_secure.json), plus the schedule-exploration /
# race-detection and offline-fsck self-checks (both of which now also
# gate parallel recovery) and the published-figure digest gate.
check: test races fsck figs-gate
	dune exec bench/main.exe -- --scale 0.05 region crash scale data recovery numa secure

# Data-path scaling: whole-file lock vs byte-range locking on one shared
# file, plus open-loop tail latency (writes BENCH_data.json).
data: build
	dune exec bench/main.exe -- data

# Multi-region NVMM: aggregate bandwidth vs region count plus the
# cross-socket latency surcharge (writes BENCH_numa.json).
numa: build
	dune exec bench/main.exe -- numa

# Security plane: plain vs protected entry vs full per-user enforcement
# across FxMark at 1-40 threads, with the <=15% overhead gate on 7a
# (writes BENCH_secure.json).
secure: build
	dune exec bench/main.exe -- secure

# The security plane must not move a single byte of the published
# figures when the permission flag is off: the deterministic
# virtual-time outputs of fig7a/e/f, fig9, fig10 and tab1 are hashed
# and compared against the committed digest (FIGS.sha256).
figs-gate: build
	dune exec bench/main.exe -- --scale 0.05 fig7a fig7e fig7f fig9 fig10 tab1 \
	  | sha256sum | cut -d' ' -f1 | diff FIGS.sha256 - \
	  || (echo "figs-gate: published figures diverged from FIGS.sha256" && exit 1)

# Offline fsck-style self-check: the checker must pass a correctly
# recovered crash image (legacy and log-ring media) and flag both
# deliberately mis-recovered ones — skipped log resolution AND a
# broken parallel sweep (dropped mark shard).
fsck: build
	dune exec bench/main.exe -- --check

# Schedule-exploration + race-detection self-check: every default FS
# state machine must be schedule-invariant, fsck-clean and race-free
# under explored interleavings; parallel (fiber-mode) recovery must be
# schedule-independent under the same bar; and the detector's negative
# control (unlocked racing stores) must fire.
races: build
	dune exec bench/main.exe -- --scale 0.2 --races

bench: build
	dune exec bench/main.exe -- region

# Paired runs of the repository benchmark, BASE against the working
# tree: N pairs at seed 1 and N at the hold-out seed 2, then --compare
# and the pair-win tally of each end-to-end metric.
W ?= ycsb-a
BASE ?= HEAD
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(W) $(BASE) $(N)

# Host-time profile of one benchmark workload: an LD_PRELOAD sampler
# (scripts/pcprof.c) records the interrupted program counter on every
# SIGVTALRM (user CPU time), nm -n symbolises it, and the top self-time
# symbols print.
prof:
	bash scripts/prof.sh $(W)

clean:
	dune clean
