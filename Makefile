# Tree-SVD developer targets. `make ci` is the full gate: gofmt, vet,
# build, tests, the race-detector pass over the concurrency-sensitive
# packages (the public facade, everything under internal/, and the
# binaries under cmd/, which have no tests but build and vet under it),
# the short-mode differential fuzz of the correctness harness, ten
# seconds of coverage fuzzing on each decoder of untrusted bytes, the
# fault-injection crash matrix of the durable wrapper, the chaos suite,
# doclint, and one-iteration smokes of the serve, apply, recommend and
# repair benchmarks.

GO ?= go

# Per-target budget for `make fuzz-decoders`.
FUZZTIME ?= 10s

# Seed count for `make fuzz`; each seed is one adversarial churn stream
# driven through the differential harness (internal/check).
SEEDS ?= 16

.PHONY: ci vet build test race differential crash chaos fuzz fuzz-decoders bench bench-kernels bench-serve bench-serve-short bench-apply-short bench-recommend-short bench-repair-short serve-race fmt docs

ci: fmt vet build test race differential fuzz-decoders crash chaos docs bench-serve-short bench-apply-short bench-recommend-short bench-repair-short

vet:
	$(GO) vet ./...

# Documentation gate: go vet's doc-adjacent checks plus cmd/doclint,
# which requires a package comment on every package and a doc comment on
# every exported identifier of the public root package.
docs: vet
	$(GO) run ./cmd/doclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short keeps internal/sparse's model-based property test at a few
# hundred steps per shape; `make test` runs it at full size.
race:
	$(GO) test -race -short ./internal/sparse
	$(GO) test -race $$($(GO) list ./internal/... | grep -v /internal/sparse$$) ./server/... ./client/... ./cmd/... .

# Differential correctness harness at the default seed count, under the
# race detector — the CI gate for the dynamic path. Includes the
# crash-recovery leg (fault injection mid-stream, reopen, track shadow).
differential:
	$(GO) test -race -run 'TestDifferential|TestCrashRecoveryDifferential' -count=1 ./internal/check

# Fault-injection gate: the scripted crash-point matrix over the durable
# wrapper (every filesystem operation killed once, per failure mode) plus
# the faultfs harness's own tests.
crash:
	$(GO) test -run TestCrashPointMatrix -count=1 .
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
# not write: the event-stream parser, the proximity matrix's gob codec and
# Load — the whole save format, graph and PPR-state gob decoders included,
# behind a re-sealed checksum (a decode returns an error or a value that
# passes its audit, never a panic). go test takes one -fuzz target per run. Minimizing a new input
# is capped well below the budget — the seeds are kilobytes long and the
# default cap (60s) would spend the whole run shrinking the first find.
fuzz-decoders:
	$(GO) test -run '^$$' -fuzz FuzzReadEvents -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzDynRowGobDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sparse
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
# (4- and 48-event batches at the system benchmark's shape, Shards 1/2/4;
# ms/batch and first-read-us). For numbers: -benchtime 300x -count 5.
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

# Emits BENCH_SERVE.json: open-loop serving latency (p50/p99/p999) at
# three or more offered-load points against an in-process HTTP server,
# then one overload point at 2x the observed knee reporting the
# accepted/shed split (see cmd/loadgen). The read gate is sized for the
# box (8 slots on this 1-CPU runner) so the saturated sweep point sheds
# instead of queueing without bound; the overload point also bounds
# client-side outstanding requests so its numbers reflect the server,
# not generator self-queueing. README's "Serving" section quotes these.
bench-serve:
	$(GO) run ./cmd/loadgen -rates 200,500,1000,2000 -duration 3s \
		-read-slots 8 -out $(CURDIR)/BENCH_SERVE.json

# Short smoke variant for `make ci`: tiny graph, short windows, throwaway
# output — it gates that serve + client + loadgen still work end to end,
# not the machine-dependent numbers.
bench-serve-short:
	$(GO) run ./cmd/loadgen -short -out $(CURDIR)/.bench-serve-ci.json
	@rm -f $(CURDIR)/.bench-serve-ci.json

# The serving integration + storm suite under the race detector alone
# (it is also part of `make race`).
serve-race:
	$(GO) test -race -count=1 ./server/... ./client/...

# Formatting gate: lists unformatted files and fails when there are any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
