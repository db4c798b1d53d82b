# Developer entry points. The repository is stdlib-only; `lint` needs nothing
# beyond the go toolchain (ftlint lives in this module). staticcheck and
# govulncheck are optional extras: `make lint-extra` runs whichever of them is
# installed and skips the rest, while CI installs pinned versions and runs
# both unconditionally (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build fmt test race lint lint-extra loc fuzz bench bench-diff bench-pair serve trace-demo perfbench check

all: check

build:
	$(GO) build ./...

# Fails when gofmt would change a file, and names the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Repository-specific analyzers (determinism, seed plumbing, float compares,
# error discards, hot-path allocations, loans, goroutine shutdown), run by
# cmd/ftlint after the toolchain's own vet.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ftlint ./...

# Non-test Go lines per package directory, then the total, leaving out
# testdata, the perfbench module and the benchmark build cache.
# Informational: it never fails.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' \
		! -path './.bench_build/*' -exec wc -l {} + | awk '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { s = "sort -k2"; for (d in n) printf "%7d %s\n", n[d], d | s; close(s); printf "%7d total\n", t }' || true

# Third-party linters, gated on local availability (no network required).
lint-extra:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it pinned)"; \
	fi

# Delivery-engine micro-benchmarks (EXPERIMENTS.md §A4/§A6), the same run as
# CI's bench job, written to bench.txt in Go's benchmark text format: ns/op,
# B/op and allocs/op for RouteCycleSerial, OffLineSchedule and RunOnline at
# n = 256, 1024, 4096, RunOnline on partial switches at n = 64 and on a
# radix-16 tree at n = 4096,
# RouteCycleImplicit at n = 2^16, 2^18, 2^20 with B/endpoint,
# RunOnlineImplicit and ServeRoute.
BENCH_RE = RouteCycle|OffLineSchedule|RunOnline|ServeRoute
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem . > bench.txt
	cat bench.txt

# Compare a fresh benchmark run against the committed baseline BENCH_8.txt
# and flag ns/op regressions above 10% (and any allocs/op increase).
# Advisory: the report always exits 0; CI additionally holds the
# OffLineSchedule and RouteCycle/Implicit families to -strict (they are
# allocation-free, so the allocs/op half is noise-immune, and the ns/op half
# gets a wide band). Use `go run ./cmd/ftbenchdiff -strict BENCH_8.txt
# bench.txt` to fail on any regression or missing row.
bench-diff: bench
	$(GO) run ./cmd/ftbenchdiff BENCH_8.txt bench.txt

# Paired end-to-end comparison with another revision: BASE is checked out
# into a temporary git worktree, and each tree's own perfbench/run.sh runs
# in A, B, B, A order for PAIRS pairs of BENCHMARK.json's run length. Per
# end-to-end metric it prints each pair's ratio, the pairs the working tree
# won, and the base's median and quartiles. Example:
#   make bench-pair BASE=HEAD~1 WORKLOAD=sim-implicit PAIRS=10
WORKLOAD ?= sim-implicit
PAIRS ?= 10
SEED ?= 1
bench-pair:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-pair BASE=<rev> [WORKLOAD=$(WORKLOAD)] [PAIRS=$(PAIRS)] [SEED=$(SEED)]"; exit 2; fi
	$(GO) run ./cmd/ftbenchpair -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# Run the /v1/route daemon locally with one tenant, "default": POST requests
# to http://127.0.0.1:8080/v1/route, Prometheus metrics at /metrics.
serve:
	$(GO) run ./cmd/ftserve -addr 127.0.0.1:8080

# Sample observability artifact: a chrome://tracing-loadable trace of one
# online permutation run plus the per-level counter report (DESIGN.md §8).
# Load trace-demo.json via chrome://tracing or https://ui.perfetto.dev.
trace-demo:
	$(GO) run ./cmd/ftsim -n 256 -workload perm -policy online \
		-counters -trace-out trace-demo.json

# Short fuzz shakeout of the cross-check targets: the scheduler against its
# binary-shaped k-ary twin and a reused arena, the engine's streaming and
# k-ary planes against the test-only Fig. 3 reference engine, the /v1/route
# handler on the real mux, its wire codec against encoding/json, and the
# workload source against math/rand.
fuzz:
	$(GO) test ./internal/sched/ -fuzz FuzzSchedule -fuzztime 10s
	$(GO) test ./internal/sim/ -fuzz FuzzEnginePlaneEquivalence -fuzztime 10s
	$(GO) test ./cmd/ftserve/ -run '^$$' -fuzz FuzzRouteHandler -fuzztime 10s
	$(GO) test ./cmd/ftserve/ -run '^$$' -fuzz FuzzRouteWire -fuzztime 10s
	$(GO) test ./cmd/ftserve/ -run '^$$' -fuzz FuzzRouteRespEncode -fuzztime 10s
	$(GO) test ./internal/workload/ -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 10s

# perfbench (the end-to-end benchmark program) is a module of its own that
# imports the facade, so ./... from the root never builds it: vet and test it
# explicitly, so a facade change that breaks it fails here, not in a
# benchmark run.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

check: build fmt lint test perfbench
