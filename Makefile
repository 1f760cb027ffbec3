# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet bench-module test race race-segstore race-build crash decay-smoke load-smoke alert-smoke lint lint-self lint-check bench bench-smoke bench-baseline bench-json bench-figures experiments fuzz clean

all: build vet test

# Full pre-merge gate: compile, static checks (vet plus the repo's own
# analyzers, including the linter's own sources), tests, race detector, the
# chunked-construction equivalence at several Ps, the crash/fault-injection
# suite, the time-decayed compaction smoke, a sustained-load smoke over both
# serving transports, the standing-query alert smoke, and one iteration of
# every benchmark so a broken benchmark can't rot unnoticed. bench-module
# covers the one Go module `./...` cannot reach.
check: build vet bench-module lint-check test race race-segstore race-build crash decay-smoke load-smoke alert-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a module of its own (the BENCHMARK.json harness), so `./...`
# never compiles it — yet it builds cmd/burstd and imports internal/segstore
# through its replace directive. Vet it and run its tests against this tree.
bench-module:
	cd bench && $(GO) vet . && $(GO) test -count 1 .

# Repo-specific invariants go vet cannot see: decoder allocation safety,
# dropped errors, lock discipline and ordering, atomic-field access, noalloc
# hot paths, fastpath twins, goroutine shutdown, fsync-before-ack.
# See docs/ANALYZERS.md.
lint:
	$(GO) run ./cmd/histlint ./...

# The linter's own sources held to the same bar (analyzers, loader, fixtures
# runner, and the histlint command).
lint-self:
	$(GO) run ./cmd/histlint ./internal/lint ./cmd/histlint

# lint + lint-self in a single process: the loader memoizes the go/types
# pass per directory and ExpandPatterns dedupes, so the self-lint rides the
# same load instead of paying a second one. CI runs this through `check`.
lint-check:
	$(GO) run ./cmd/histlint ./... ./internal/lint ./cmd/histlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The segment store's concurrency tests are the repo's sharpest race bait
# (append vs seal vs compaction vs lock-free snapshots); run them under the
# race detector with a longer timeout and no result caching so `make check`
# always exercises them fresh.
race-segstore:
	$(GO) test -race -count 1 -run 'TestConcurrent' ./internal/segstore/ ./cmd/burstd/

# Chunked, level-major construction under the race detector at one, two and
# four Ps, uncached: Detector.Append's fan-out over the dyadic levels must
# save to the bytes of the per-element Tree.Append twin, every reader must
# settle the pending chunk first, and 64 goroutines querying one finished
# detector must not race.
race-build:
	$(GO) test -race -count 1 -cpu 1,2,4 -run 'TestAppendBatch|TestFlushBeforeRead|TestBuildParallel' \
		. ./internal/dyadic/ ./internal/cmpbe/

# Durability gate: crash-at-every-byte sweeps over the WAL, segment, and
# manifest write paths, bit-flip corruption recovery, the subprocess
# SIGKILL ack-contract test, scrub/quarantine, and degraded-mode serving —
# all under the race detector, uncached, so `make check` re-proves the
# "no acked append is ever lost" contract on every run.
crash:
	$(GO) test -race -count 1 -run 'TestCrash|TestWAL|TestStager|TestScrub|TestCorrupt|TestDiskFault|TestQuarantine' \
		./internal/segstore/ ./internal/faultio/ ./internal/wire/ ./cmd/burstd/

# Time-decayed compaction gate under the race detector, uncached: the
# multi-week long-horizon lifecycle (recent history bit-identical to an
# undecayed store, old history inside its reported envelope, reopen
# round-trip), the downsample kernel vs its naive twin, tier-ladder
# validation, crash sweeps over the decay manifest/segment writes, and the
# burstd -decay-tiers flag end to end.
decay-smoke:
	$(GO) test -race -count 1 -run 'TestDecay|TestEqualBoundary|TestResolveDecayTiers|TestParseDecayTiers|TestCrashDuringDecay' \
		./internal/segstore/ ./cmd/burstd/

# Sustained-load smoke: burstload's closed- and open-loop engines against an
# in-process burstd over both serving transports (HTTP/JSON and the HBP1
# wire protocol), asserting every op kind completes without errors.
# BURSTLOAD_SMOKE_MS stretches the per-run length.
load-smoke:
	$(GO) test -race -count 1 -run 'TestServingLoadSmoke' ./cmd/burstd/

# Standing-query gate under the race detector, uncached: an append commits
# and the alert lands on all three delivery channels (SSE, webhook, wire
# ALERT frame), rising-edge dedup holds across a sustained burst, degraded
# histories stamp their envelope onto alerts, and a stalled SSE subscriber
# sheds instead of backpressuring ingest.
alert-smoke:
	$(GO) test -race -count 1 -run 'TestAlert|TestSubscri|TestStalledSSE|TestSSEGap|TestUnsubscribe|TestConnClose' \
		./cmd/burstd/ ./internal/wire/ ./internal/subscribe/

# Microbenchmarks plus one pass of every figure benchmark.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# One compile-and-run iteration of every benchmark, then the regression
# gate; part of `check`.
bench-smoke: bench-baseline
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Regression gate: re-measure the pinned segment-store benchmarks and fail
# when any is more than 25% slower (ns/op) than the committed baseline
# record. The baseline is frozen so drift is measured against a fixed point;
# bump it deliberately, with the numbers, when a PR re-baselines. Bumped
# PR5 → PR7 with the wire-protocol record: the PR5 container measured
# CrossSegmentPoint at 680 ns/op where today's measures 790–1100 on
# identical code (checked at the pre-PR commit), so gating against PR5 had
# started failing on environment drift alone; BENCH_PR7.json re-records all
# five segstore rows on current hardware (within noise of PR5, speedups
# 0.90–0.98x at the moment of recording). Bumped PR7 → PR9 when the
# standing-query PR re-recorded everything on current hardware and added
# the alert-latency and stalled-subscriber rows.
# The second leg re-measures the serving-latency record (burstload quantiles
# over both transports) against the same BENCH_PR7.json; closed-loop tail
# quantiles are noisier still, so its threshold only trips on
# transport-level catastrophes (e.g. wire point p50 µs → ms), never jitter.
BENCH_BASELINE ?= BENCH_PR9.json
SERVE_BASELINE ?= BENCH_PR9.json
# benchjson keeps the fastest of the -count 6 runs per benchmark: the
# min-of-N floor converges on the code's true cost as N grows, where a
# single run wanders with the neighbors — identical code measured 791
# ns/op and 1038 ns/op for CrossSegmentPoint half an hour apart (+31%).
# Deepening the floor from 3 to 6 runs is what lets the threshold sit at
# 40% (tight enough to catch a genuine ~50% structural regression) without
# failing on container noise alone.
bench-baseline:
	$(GO) test -run NONE -bench Segstore -benchmem -benchtime 1s -count 6 ./internal/segstore/ \
		| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -max-regress 40 -o /dev/null
	BURSTLOAD_RECORD=1 $(GO) test -v -count 1 -run 'TestServingLatencyRecord' ./cmd/burstd/ \
		| $(GO) run ./cmd/benchjson -baseline $(SERVE_BASELINE) -max-regress 150 -o /dev/null

# Machine-readable benchmark record for the current PR (see DESIGN.md).
# Earlier records (BENCH_PR2.json: query-path overhaul, pinned against
# BenchmarkSketchBurstiness pre-overhaul at 480.3 ns/op; BENCH_PR4.json:
# segmented store) are frozen historical baselines — regenerating them on
# today's code would erase the before/after they exist to document. Note on
# the parallel pair: the BurstyEvents facade now routes to the sequential
# walk when GOMAXPROCS < 2, because the raw fan-out measured ~0.96x on a
# single-CPU host; the dyadic-package benchmark still measures the raw
# parallel walk, so that pair can read slightly below 1x there.
bench-json:
	{ $(GO) test -run NONE -bench Segstore -benchmem -benchtime 2s ./internal/segstore/ ; \
	  $(GO) test -run NONE -bench Downsample -benchmem -benchtime 2s ./internal/pbe2/ ; \
	  BURSTLOAD_RECORD=1 $(GO) test -v -count 1 -run 'TestServingLatencyRecord' ./cmd/burstd/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_PR10.json -baseline BENCH_PR9.json \
			-note "Time-decayed compaction record vs the PR9 standing-query record. New rows: SegstoreDecayRun vs SegstoreDecayRunNaive pit the streaming downsample merge kernel against the merge-then-rebuild twin on the same 4-segment run; SegstoreDecayFootprint/{decay,full} ingest the same ~42-day synthetic stream and report the retained-bytes metric family (whole store plus per-tier split) — the decay leg must come out far below the full leg, the O(log T) vs O(T) claim; SegstoreDeepHistory/{point,events,times}/{decayed,full} measure historical queries deep in tier-2 territory, where coarser segments mean fewer cells scanned, so decayed legs must be no worse; PBE2Downsample vs PBE2DownsampleNaive pin the per-layer kernel. Pre-existing segstore and serve rows carry the PR9 baseline diff"

# Human-readable evaluation tables (paper Section VI).
experiments:
	$(GO) run ./cmd/burstbench -all -scale 0.02 -queries 300

# Short fuzzing pass over every decoder (the PBE-2 cell block's on its own
# as well as inside a detector file), the detector's append path and the
# PBE-2 kernel's one-sided contract (at small, Unix-second and
# Unix-millisecond time origins). FUZZTIME is overridable so CI can run a
# quicker smoke (make fuzz FUZZTIME=10s).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/stream/
	$(GO) test -fuzz FuzzLoad$$ -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzDetectorLoad -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzInspect -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzLoadSingle -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzDetectorAppend -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzPBE2OneSided -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzPBE2CellBlock -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzManifestLoad -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWALRecordDecode -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzAlertFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzSubscriptionDecode -fuzztime $(FUZZTIME) ./internal/wire/

clean:
	$(GO) clean ./...
