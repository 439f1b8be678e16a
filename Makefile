GO ?= go

.PHONY: build vet lint test race check bench-compile bench-smoke bench bench-paper fuzz mesh-test loc sim-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the dnslint analyzer suite (internal/analysis/...) over the
# repo via the vet -vettool protocol. Zero unannotated findings is the
# bar; suppress with `//dnslint:ignore <analyzer> <reason>`. Analysis
# scope (which packages each invariant is enforced in) is the one table
# lintutil.Scope, never here and never a flag: everything, cmd/ and
# _test.go included, is handed to the driver. Add -json to the vet
# command for a machine-readable report. Repeat runs are cheap — vet caches
# per-package facts (the dataflow index, taint and deadline summaries)
# in the go build cache, so only changed packages re-analyze.
lint:
	$(GO) build -o bin/dnslint ./cmd/dnslint
	$(GO) vet -vettool=$(abspath bin/dnslint) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# mesh-test runs the multi-process mesh integration test: real dnscache
# binaries on real sockets, peer-fetching through an upstream outage.
mesh-test:
	DNSCACHE_MESH_PROC=1 $(GO) test -race -run TestMeshMultiProcess -v ./cmd/dnscache

# bench-compile checks that benchmark/ — a nested module a root
# `go test ./...` does not reach — still compiles against the internal
# APIs it uses, and runs its unit tests.
bench-compile:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# loc prints the size every simplicity PR quotes, per package and in
# total: Go lines that are not blank, not a // comment and not in a test,
# outside benchmark/, third_party/ and analyzer testdata/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './third_party/*' ! -path '*/testdata/*' \
		| xargs grep -HcvE '^[[:space:]]*(//.*)?$$' \
		| awk -F: '{ sub(/\/[^\/]*$$/, "", $$1); n[$$1] += $$2 } END { for (d in n) printf "%6d %s\n", n[d], d }' \
		| sort -k2 | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

# sim-check is the standing acceptance of every PR, made mechanical: the
# deterministic simulation still prints results_full.txt byte for byte, and
# the two experiments that post-date that file (restart, mesh) still print
# testdata/results_restart_mesh.txt (captured at commit 4ea8f79; to
# regenerate either file, redirect the same command into it and say why in
# CHANGES.md). The runs behind the tables execute on all cores; the whole
# target took 4 m 09 s on a 2-vCPU box (8 m 47 s before the planner, one run
# at a time) — still its own CI job beside `test`, not a step of `make
# check`.
sim-check:
	$(GO) run ./cmd/dnssim -exp all | cmp - results_full.txt
	$(GO) run ./cmd/dnssim -exp restart,mesh | cmp - testdata/results_restart_mesh.txt

# bench-smoke runs the meter for real, briefly: each workload once for six
# seconds, untraced, against a dnscache built from this tree. It gates what
# does not depend on a quiet host — the run completes, every answer
# validated ("correct":true), no query failed, dnscache alive throughout —
# and no timing at all: a slower tree passes smoke and fails `make bench`.
# About 45 s for the four on 2 vCPU with builds cached.
bench-smoke:
	@for w in hit miss blackout flood; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 6 --trace 0) || \
			{ echo "$$out" | tail -n 20; echo "bench-smoke: $$w: the run failed"; exit 1; }; \
		last=$$(echo "$$out" | tail -n 1); \
		for want in '"correct":true' '"failed":0,' '"alive_ratio":{"value":1,'; do \
			case "$$last" in *"$$want"*) ;; \
			*) echo "$$last"; echo "bench-smoke: $$w: result line lacks $$want"; exit 1 ;; esac; \
		done; \
		echo "bench-smoke: $$w ok"; \
	done

# check is what CI's test job runs: the race detector and dnslint gate
# every PR (sim-check runs beside it, as a job of its own).
check: build vet lint race mesh-test bench-compile bench-smoke

# bench runs the repository's one meter (see BENCHMARK.json and
# benchmark/README.md): four workloads against a real dnscache child,
# end-to-end metrics gated against the parent commit. It needs a quiet
# multi-core host, so CI does not run it; what CI runs is bench-smoke,
# which proves the meter still runs to completion with every answer
# right and gates none of its numbers.
bench:
	bash benchmark/run.sh

# bench-paper regenerates every table/figure benchmark in the root suite
# (the paper-reproduction harness, one iteration each).
bench-paper:
	$(GO) test -bench=. -benchtime=1x .

# fuzz is the CI smoke pass over the wire-format, persist-format and
# zone-file parsers, and over the plain-query probe the read loop trusts
# in place of Unpack.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnpack -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalName -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzQueryKey -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzParseStore -fuzztime=30s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzMeshFrame -fuzztime=30s ./internal/mesh
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/zone
