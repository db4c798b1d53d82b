# Developer entry points. The repository is stdlib-only; `lint` needs nothing
# beyond the go toolchain (ftlint lives in this module). staticcheck and
# govulncheck are optional extras: `make lint-extra` runs whichever of them is
# installed and skips the rest, while CI installs pinned versions and runs
# both unconditionally (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint lint-extra fuzz bench-json bench-diff serve trace-demo perfbench check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Repository-specific analyzers (determinism, seed plumbing, float compares,
# pool captures, error discards). Equivalent invocation via the go command:
#   go build -o "$$(go env GOPATH)/bin/ftlint" ./cmd/ftlint
#   go vet -vettool=$$(which ftlint) ./...
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ftlint ./...

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

# Delivery-engine micro-benchmarks (EXPERIMENTS.md §A4/§A6) as
# machine-readable JSON: ns/op, B/op, allocs/op for RouteCycleSerial and
# OffLineSchedule at n = 256, 1024, 4096, the large-n streaming row
# RouteCycleImplicit at n = 2^16, 2^18, 2^20 with bytes/endpoint, plus run
# metadata (go version, GOOS/GOARCH, CPU count, timestamp) so snapshots are
# comparable across machines and PRs.
bench-json:
	$(GO) run ./cmd/ftbench -bench -json > BENCH_8.json

# Compare a fresh benchmark run against the committed baseline and flag
# ns/op regressions above 10% (and any allocs/op increase). Advisory: the
# report always exits 0; CI additionally holds the OffLineSchedule and
# RouteCycle/Implicit families to -strict (they are allocation-free, so the
# allocs/op half is noise-immune, and the ns/op half gets a wide band). Use
# `go run ./cmd/ftbenchdiff -strict old.json new.json` to fail on any
# regression.
bench-diff:
	$(GO) run ./cmd/ftbench -bench -json > /tmp/bench-current.json
	$(GO) run ./cmd/ftbenchdiff BENCH_8.json /tmp/bench-current.json

# Run the live-telemetry daemon locally: Prometheus metrics at
# http://127.0.0.1:8080/metrics while simulations rotate underneath.
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

check: build lint test perfbench
