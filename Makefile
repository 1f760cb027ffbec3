# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet bench-module test race race-segstore race-build crash decay-smoke alert-smoke lint lint-self lint-check bench bench-smoke experiments fuzz clean

all: build vet test

# Full pre-merge gate, twelve steps: compile, vet, the benchmark module (the
# one Go module `./...` cannot reach; its TestQuickSmoke drives all four
# BENCHMARK.json workloads against a burstd built from this tree), the repo's
# own analyzers (the linter's sources included), tests, the race detector,
# the store's and burstd's concurrency tests uncached, the
# chunked-construction equivalence at several Ps, the crash/fault-injection
# suite, the time-decayed compaction smoke, the standing-query alert smoke,
# and one iteration of every testing.B benchmark so none can rot unnoticed.
# Nothing here is timed: a performance claim is made with bench/ (README,
# "Making a performance claim").
check: build vet bench-module lint-check test race race-segstore race-build crash decay-smoke alert-smoke bench-smoke

build:
	$(GO) build ./...

# go vet, and gofmt: any file gofmt would rewrite fails the target. The
# analyzers' fixtures under testdata/ are exempt — one is misformatted on
# purpose.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; fi

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
# (append vs seal vs compaction vs lock-free snapshots), and burstd's mixes
# appends, queries and a standing query over HTTP and HBP1 at once; run them
# under the race detector with no result caching so `make check` always
# exercises them fresh.
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

# Standing-query gate under the race detector, uncached: an append commits
# and the alert lands on all three delivery channels (SSE, webhook, wire
# ALERT frame), rising-edge dedup holds across a sustained burst, degraded
# histories stamp their envelope onto alerts, and a stalled SSE subscriber
# sheds instead of backpressuring ingest.
alert-smoke:
	$(GO) test -race -count 1 -run 'TestAlert|TestSubscri|TestStalledSSE|TestSSEGap|TestUnsubscribe|TestConnClose' \
		./cmd/burstd/ ./internal/wire/ ./internal/subscribe/

# One compile-and-run iteration of every testing.B benchmark; part of
# `check`. `bench` is an alias.
bench bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

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
