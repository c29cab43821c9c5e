.PHONY: all build test check bench-commit bench-pairs prof figs-gate figs-pin fsck races clean

all: build

build:
	dune build

test: build
	dune runtest

# Full gate: build + unit/property/differential tests (four POSIX-suite
# passes: default, scaled, log-ring, range) and the five examples + a
# quick smoke run of the region data-path microbenchmark, the bounded
# crash-image explorer / media-fault / checker experiment (including
# the log-ring rename
# machines and the crash-during-recovery re-entrancy machines), the
# metadata-scalability sweep, the data-path scaling + open-loop
# experiment, the parallel mark-and-sweep recovery figure, the
# multi-region NUMA bandwidth figure and the security-plane overhead
# sweep with its <=15% protected-path gate, plus the schedule-exploration
# / race-detection and offline-fsck self-checks (both of which also gate
# parallel recovery) and the published-figure digest gate.  The smoke
# run exports each experiment's result to _build/bench/BENCH_<id>.json
# (schema simurgh-bench-v1) and writes no tracked file.
check: test races fsck figs-gate
	dune exec bench/main.exe -- --scale 0.05 --json _build/bench \
	  region crash scale data recovery numa secure

# Regenerate the committed BENCH_*.json files, all at scale 1, one
# process per experiment so that each file's host.peak_rss_mb is that
# experiment's own.  This is the only target that writes them; compare
# against the previous commit with `git diff BENCH_*.json`.  recovery's
# 10^6-file point peaks near 5 GB (5,017 MB in BENCH_recovery.json):
# run this alone on an 8 GB host.
BENCH_COMMIT = region scale data recovery numa secure
bench-commit: build
	for id in $(BENCH_COMMIT); do \
	  dune exec bench/main.exe -- --scale 1 --json . $$id || exit 1; \
	done

# The security plane must not move a single byte of the published
# figures when the permission flag is off: the deterministic
# virtual-time outputs of fig7a/e/f, fig9, fig10 and tab1 are compared
# byte for byte against the committed FIGS.txt, and a mismatch prints
# the figure lines that moved.  The data figures fig7g/i/k/l ride the
# same gate so the data path (whole-file and relaxed rows included) is
# held to its published numbers too; fig7h stays out, its scale-1
# region is killed for memory.  A change that means to move them
# re-pins with `make figs-pin` and lists every changed line.
FIGS = fig7a fig7e fig7f fig7g fig7i fig7k fig7l fig9 fig10 tab1
figs-gate: build
	dune exec bench/main.exe -- --scale 0.05 $(FIGS) | diff -u FIGS.txt - \
	  || (echo "figs-gate: published figures diverged from FIGS.txt" && exit 1)

figs-pin: build
	dune exec bench/main.exe -- --scale 0.05 $(FIGS) > FIGS.txt

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
