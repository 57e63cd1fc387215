# Development targets. `make check` is the full local gate: static
# analysis, the complete test suite under the race detector (including the
# parallel sweep engine's scheduling-independence tests and the
# deterministic *WorkBound work gates), a one-iteration benchmark smoke
# pass, the trace and detector smokes, the perfbench module's vet and
# tests, and a short fuzz pass over every fuzz target. boundaryd's serving
# path, its HTTP API and its trace/FTDC capture are checked by go test
# (cmd/boundaryd, internal/serve). End-to-end performance is measured by
# perfbench/, not here.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race race-shard fuzz benchsmoke trace-smoke trace-stat detector-matrix perfbench-check check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrent surfaces: the sharded detection
# engine's differential matrix and shard/halo suites (shard-parallel loops
# at several worker widths), the incremental engine's repair workers,
# boundaryd's concurrent session registry, the detector zoo's
# metamorphic/vocabulary suites (every registered detector's parallel
# candidate loops), the incremental surface engine's differential matrix
# (cached mesh repair with and without SPT reuse), and the always-on
# metrics/FTDC capture path (atomic sinks racing a sampler goroutine), and
# the direct flood evaluators' differential suite against the sim kernels
# (parallel per-member IFF searches at several worker widths), and the
# steady-state allocation guard over the per-node kernels the batch,
# sharded and incremental paths share.
# (The blanket `race` target covers these too; this target is the quick
# iteration loop.)
race-shard:
	$(GO) test -race -count=1 -run 'Shard|Incremental|Serve|Detector|Metrics|FTDC|Ring|Sampler|Mesh|DirectFlood|IFFFlood' ./internal/core ./internal/partition/shard ./internal/graph ./internal/serve ./internal/obs ./internal/obs/ftdc ./internal/mesh

# `go test -fuzz` accepts a single package per invocation, so each fuzz
# target gets its own run.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCSRFromEdges -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzFaultedDelivery -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzSpheresThrough3 -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -run=^$$ -fuzz=FuzzCircumcenter3 -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -run=^$$ -fuzz=FuzzLoadDiff -fuzztime=$(FUZZTIME) ./internal/obs/analyze
	$(GO) test -run=^$$ -fuzz=FuzzShardPartition -fuzztime=$(FUZZTIME) ./internal/partition/shard
	$(GO) test -run=^$$ -fuzz=FuzzFTDCReader -fuzztime=$(FUZZTIME) ./internal/obs/ftdc
	$(GO) test -run=^$$ -fuzz=FuzzMeshStitch -fuzztime=$(FUZZTIME) ./internal/mesh
	$(GO) test -run=^$$ -fuzz=FuzzLandmarkAssociation -fuzztime=$(FUZZTIME) ./internal/mesh
	$(GO) test -run=^$$ -fuzz=FuzzDirectFlood -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzUBFCell -fuzztime=$(FUZZTIME) ./internal/core

# One iteration of every benchmark — proves the profiling entry points stay
# runnable.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# End-to-end observability smoke: record a trace of a faulty asynchronous
# run at reduced scale, then let the run's own exit-time validation (and a
# non-empty-file check here) prove the JSONL matches the schema.
trace-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/experiment -run faults -async -scale 0.15 -trace $$dir/trace.jsonl && \
	test -s $$dir/trace.jsonl && echo "trace-smoke: OK ($$dir/trace.jsonl)"

# Flight-recorder analytics smoke: record a round-resolved trace and an
# FTDC capture of the same run, then run tracestat over each (curves +
# anomaly scan; capture stats + final-sample totals) and over each twice
# as an identity diff, which must exit zero.
trace-stat:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/experiment -run faults -async -scale 0.15 -trace $$dir/trace.jsonl -ftdc $$dir/ftdc && \
	$(GO) run ./cmd/tracestat -trace $$dir/trace.jsonl -out $$dir/report.json && \
	$(GO) run ./cmd/tracestat -trace $$dir/trace.jsonl -against $$dir/trace.jsonl && \
	$(GO) run ./cmd/tracestat -ftdc $$dir/ftdc && \
	$(GO) run ./cmd/tracestat -ftdc $$dir/ftdc -against $$dir/ftdc && \
	echo "trace-stat: OK"

# Cross-detector comparison smoke: every registered detector over the
# reduced standard fixtures, printing the precision/recall/cost table.
# Proves the -run detectors path and the whole registry stay runnable.
detector-matrix:
	$(GO) run ./cmd/experiment -run detectors -scale 0.15

# perfbench/ is its own Go module linking core, mesh and serve, so
# `./...` from the root never compiles it: vet and test it directly, so
# an API change breaks here rather than at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

check: vet race race-shard benchsmoke trace-smoke trace-stat detector-matrix perfbench-check fuzz

# The cache-defeating correctness gate for CI and pre-merge runs: gofmt and
# static analysis, the full test suite with result caching off, so every
# package really re-executes (boundaryd's serving path and the served
# sessions' differential checks included), then the detector smoke and the
# perfbench module's vet and tests.
ci:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -count=1 ./...
	$(MAKE) detector-matrix
	$(MAKE) perfbench-check
