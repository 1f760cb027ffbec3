# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet bench-module test race lint lint-self lint-check bench bench-smoke experiments fuzz clean

all: build vet test

# Full pre-merge gate, seven steps: compile, vet, the benchmark module (the
# one Go module `./...` cannot reach; its TestQuickSmoke drives all four
# BENCHMARK.json workloads against a burstd built from this tree), the repo's
# own analyzers (the linter's sources included), tests, every test again
# under the race detector, and one iteration of every testing.B benchmark so
# none can rot unnoticed. Nothing here is timed: a performance claim is made
# with bench/ (README, "Making a performance claim").
check: build vet bench-module lint-check test race bench-smoke

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

# Every test under the race detector, uncached, so `make check` always
# exercises the sharpest race bait fresh: the store's append vs seal vs
# compaction vs lock-free snapshots, burstd's appends beside queries and
# standing queries over HTTP and HBP1, the chunked construction at one, two
# and four Ps (its tests run a sub-test per GOMAXPROCS), and the crash,
# decay and alert suites.
race:
	$(GO) test -race -count 1 ./...

# One compile-and-run iteration of every testing.B benchmark; part of
# `check`. `bench` is an alias.
bench bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Human-readable evaluation tables (paper Section VI).
experiments:
	$(GO) run ./cmd/burstbench -all -scale 0.02 -queries 300

# Short fuzzing pass over every decoder (the PBE-2 cell block's on its own
# as well as inside a detector file), the element-run round trip, the
# detector's append path, the PBE-2 kernel's one-sided contract (at small,
# Unix-second and Unix-millisecond time origins, through a merge of cut
# parts, and for every stored line, narrow or escaped, through a merge whose
# lift passes int32), its searches against a linear scan with segment starts
# on either side of 2³² ticks from a cell's first, its packed columns with
# fields across every byte width against the values appended, and the store
# head's packed timestamp sequences against a sorted-slice twin.
# FUZZTIME is overridable so CI can run a quicker smoke (make fuzz
# FUZZTIME=10s).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/stream/
	$(GO) test -fuzz FuzzElementRun -fuzztime $(FUZZTIME) ./internal/stream/
	$(GO) test -fuzz FuzzLoad$$ -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzDetectorLoad -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzInspect -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzLoadSingle -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzDetectorAppend -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz FuzzPBE2OneSided -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzPBE2CellBlock -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzSummarySearch -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzMergeOneSided -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzNarrowLine -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzPackedColumn -fuzztime $(FUZZTIME) ./internal/pbe2/
	$(GO) test -fuzz FuzzManifestLoad -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWALRecordDecode -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzHeadSeq -fuzztime $(FUZZTIME) ./internal/segstore/
	$(GO) test -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzAlertFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzSubscriptionDecode -fuzztime $(FUZZTIME) ./internal/wire/

clean:
	$(GO) clean ./...
