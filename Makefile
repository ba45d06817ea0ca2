# Tree-SVD developer targets. `make ci` is the full gate: gofmt, vet,
# an arm64 vet of the portable fallbacks and a scan of the arm64 product
# kernels for fused multiply-adds, build, vet and short tests of
# the benchmark module, tests, the race-detector pass over the
# concurrency-sensitive
# packages (the public facade, everything under internal/, and the
# binaries under cmd/), the short-mode differential fuzz of the
# correctness harness, ten seconds of coverage fuzzing on each decoder of
# untrusted bytes, the fault-injection crash matrix of the durable
# wrapper, the chaos suite, the doc tests, and one-iteration smokes of the
# apply, recommend and repair benchmarks. Serving latency is measured by
# the benchmark's serve-mixed workload (bash benchmark/run.sh --workload
# serve-mixed), not here.

GO ?= go

# Per-target budget for `make fuzz-decoders`.
FUZZTIME ?= 10s

# Seed count for `make fuzz`; each seed is one adversarial churn stream
# driven through the differential harness (internal/check).
SEEDS ?= 16

.PHONY: ci vet cross build bench-module test race differential crash chaos fuzz fuzz-decoders bench bench-kernels bench-apply-short bench-recommend-short bench-repair-short serve-race fmt docs lines

ci: fmt vet cross build bench-module test race differential fuzz-decoders crash chaos docs bench-apply-short bench-recommend-short bench-repair-short

vet:
	$(GO) vet ./...

# Cross-architecture gate: vet the whole module for arm64, so the
# portable inner loops that stand in for the amd64 assembly
# (internal/linalg/kernels_other.go) keep compiling. `make vet` already
# runs asmdecl over the assembly's frame offsets on amd64. Then it reads
# the arm64 assembly listing of internal/linalg and internal/sparse and
# fails on a fused multiply-add attributed to a kernels*.go line: the
# product kernels round every product before its add, so their bits are
# the same on every GOARCH. A listing that names no kernels*.go line
# fails too, so an empty build cannot pass.
cross:
	GOARCH=arm64 $(GO) vet ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/linalg ./internal/sparse 2>&1) || { echo "$$asm" | tail -20; exit 1; }; \
	kern=$$(echo "$$asm" | grep -E '\((.*/)?kernels[^/]*\.go:[0-9]+\)'); \
	if [ -z "$$kern" ]; then echo "cross: the arm64 listing names no kernels*.go line"; exit 1; fi; \
	fma=$$(echo "$$kern" | grep -E '\)[[:space:]]+FN?M(ADD|SUB)[DS][[:space:]]'); \
	if [ -n "$$fma" ]; then echo "cross: fused multiply-add in a product kernel on arm64:"; echo "$$fma"; exit 1; fi

# Documentation gate: go vet's doc-adjacent checks plus the doc tests of
# docs_test.go (also part of `make test`): a package comment on every
# package, a doc comment on every exported identifier of the public
# packages (root, server, client), live make targets, cmd/ paths and
# settings in the docs, the docs' lists of the stage table's rows,
# README's and DESIGN's line budgets; and the two
# census tests: every public setting and every export has a non-test
# caller or a stated reason.
docs: vet
	$(GO) test -count=1 -run 'TestDocsNameLiveTargets|TestDocsListTheStageTable|TestReadmeWithinBudget|TestDesignWithinBudget|TestEveryPackageHasAComment|TestPublicExportsHaveDocComments|TestEveryPublicSettingHasACaller|TestEveryExportHasACaller|TestCensusCountsExcludedFiles' .

build:
	$(GO) build ./...

# The benchmark (benchmark/, its own module) compiles against facade and
# internal names the root build does not cover together, so a rename
# there used to fail only when the benchmark itself ran. This runs the
# module; it never edits it. Its WAL-tail checks need the background
# checkpoint to finish in time: run it on an otherwise idle box.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short -count=1 ./...

test:
	$(GO) test ./...

# -short keeps internal/sparse's model-based property test at a few
# hundred steps per shape; `make test` runs it at full size.
race:
	$(GO) test -race -short ./internal/sparse
	$(GO) test -race $$($(GO) list ./internal/... | grep -v /internal/sparse$$) ./server/... ./client/... ./cmd/... .

# Differential correctness harness at the default seed count, under the
# race detector — the CI gate for the dynamic path. Includes the
# long-horizon leg (TestDifferentialLongHorizon: 200 batches on each of 4
# seeds, eager and lazy δ, with and without growth headroom) and the
# crash-recovery leg (fault injection mid-stream, reopen, track shadow).
differential:
	$(GO) test -race -run 'TestDifferential|TestCrashRecoveryDifferential' -count=1 ./internal/check

# Fault-injection gate: the scripted crash-point matrix over the durable
# wrapper (every filesystem operation killed once, per failure mode), the
# two power-loss cases (a failed record fsync, then Reopen; a crash
# between a record's write and its fsync, then Open; each followed by two
# acknowledged batches and the loss of every byte never fsynced), plus
# the faultfs harness's own tests.
crash:
	$(GO) test -run 'TestCrashPointMatrix|TestPowerLoss' -count=1 .
	$(GO) test -count=1 ./internal/faultfs ./internal/wal

# Robustness gate, under the race detector: the netfault storm (scripted
# connection resets, latency spikes, partial writes, corruption through a
# fault-injecting listener), the admission-control overload suite
# (sheds at 2x the knee, health/readiness, deadline propagation,
# shutdown-drops-nothing) and the disk-full -> degraded -> Reopen sweep.
chaos:
	$(GO) test -race -count=1 -run 'TestNetFault|TestOverload|TestIngestSheds|TestTimeoutHeader|TestHealthAndReadiness|TestDegradedEndToEnd|TestShutdownDrops' ./server/
	$(GO) test -race -count=1 ./internal/netfault/
	$(GO) test -race -count=1 -run TestDiskFullDegradedReopen .

# Coverage-guided fuzzing of the decoders that read bytes the process did
# not write: the event-stream parser, the proximity matrix's gob codec,
# the serving layer's binary frames and their payload decoders (what
# decodes must re-encode to the same value), the WAL's segment recovery
# and checkpoint reader (what is accepted must re-encode to its bytes),
# graph.DecodeEvents (the 9-byte event form of WAL records and event
# frames; FuzzRecover and FuzzReadFrame both cover it), the graph's gob
# decoder (an error, or a graph whose every edge deletes cleanly),
# the tree snapshot's decoder on its own (RestoreTree: an error, or a tree
# that passes its shape audit and takes an Update), one PPR state's
# decoder behind RestoreSubset (an error, or a state whose keys, membership
# and values pass check.PPRState, that re-encodes to the same bytes and
# takes a Repair), and Load — the whole
# save format, graph and PPR-state gob decoders included, behind a
# re-sealed checksum (a decode returns an error or a value that passes its
# audit, never a panic). go test takes one -fuzz target per run. Minimizing a new input
# is capped well below the budget — the seeds are kilobytes long and the
# default cap (60s) would spend the whole run shrinking the first find.
fuzz-decoders:
	$(GO) test -run '^$$' -fuzz FuzzReadEvents -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzGraphGobDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzDynRowGobDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzRestoreTree -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzStateGobDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/ppr
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .

# Configurable-depth fuzz: make fuzz SEEDS=64
fuzz:
	TREESVD_FUZZ_SEEDS=$(SEEDS) $(GO) test -run 'TestDifferential|TestCrashRecoveryDifferential' -count=1 -v ./internal/check

bench:
	$(GO) test -run '^$$' -bench . -benchtime 50x .

# Emits BENCH_KERNELS.json: ns/op, allocs/op and B/op for every hot
# linear-algebra kernel across worker budgets, and the upper-level merge
# SVD stage by stage (SVDTruncMerge/* rows: gram, reduce, eigenvalues,
# vectors, backproject, whole, and the full solver's whole beside it) at
# the two merge shapes (see internal/linalg/bench_test.go).
bench-kernels:
	BENCH_KERNELS_OUT=$(CURDIR)/BENCH_KERNELS.json $(GO) test -run TestEmitKernelBench -v ./internal/linalg

# Smoke for `make ci`: one batch of each row of BenchmarkApplyEvents
# (4- and 48-event batches at the system benchmark's shape; ms/batch and
# first-read-us). For numbers: -benchtime 300x -count 5.
bench-apply-short:
	$(GO) test -run '^$$' -bench 'BenchmarkApplyEvents$$' -benchtime 1x .

# Smoke for `make ci`: one iteration of the fresh/warm Recommend
# benchmarks on both sides of the nnz(M) = n·d crossover (DESIGN.md §5),
# so they cannot rot. For numbers: -benchtime 5000x -count 5.
bench-recommend-short:
	$(GO) test -run '^$$' -bench 'BenchmarkRecommend(Fresh|Warm)$$' -benchtime 1x .

# Smoke for `make ci`: 200 batches of PPR repair + proximity refresh at
# the system benchmark's shape, 4-event and 48-event, with allocations
# and reached_states/batch. For numbers: -benchtime 2000x -count 5.
bench-repair-short:
	$(GO) test ./internal/ppr -run xxx -bench Repair -benchtime 200x

# The serving integration + storm suite under the race detector alone
# (it is also part of `make race`).
serve-race:
	$(GO) test -race -count=1 ./server/... ./client/...

# Formatting gate: lists unformatted files and fails when there are any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Line budget: prints the non-test Go line count outside benchmark/, the
# figure ROADMAP.md's line target is stated in.
lines:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l
