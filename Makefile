GO ?= go

.PHONY: build vet lint test race check bench-compile bench-smoke bench bench-paper fuzz mesh-test loc size sim-check claims claims-full profile

build:
	$(GO) build ./...

# vet covers cmd/dnscache's profile build (profile.go, -tags profile) as
# well, which the default build leaves out.
vet:
	$(GO) vet ./...
	$(GO) vet -tags profile ./cmd/dnscache

# lint runs the dnslint analyzer suite (internal/analysis/...) over the
# repo via the vet -vettool protocol. Zero unannotated findings is the
# bar; suppress with `//dnslint:ignore <analyzer> <reason>`. Analysis
# scope (which packages each invariant is enforced in) is the one table
# lintutil.Scope, never here and never a flag: everything, cmd/ and
# _test.go included, is handed to the driver. Add -json to the vet
# command for a machine-readable report. Repeat runs are cheap — vet caches
# per-package facts (the dataflow index, taint and deadline summaries)
# in the go build cache, so only changed packages re-analyze. The second
# vet covers cmd/dnscache's profile build (profile.go, -tags profile),
# which the default build leaves out, so it cannot rot.
lint:
	$(GO) build -o bin/dnslint ./cmd/dnslint
	$(GO) vet -vettool=$(abspath bin/dnslint) ./...
	$(GO) vet -tags profile -vettool=$(abspath bin/dnslint) ./cmd/dnscache

test:
	$(GO) test ./...

# race runs the suite under the race detector, then the allocation tests
# twenty times more: they run their bodies under -race and assert their
# counts only without it (internal/race), and the repeat keeps a count
# that the race runtime perturbs from creeping back in.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run Allocs ./...

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

# size prints the byte size of the dnscache binary, beside make loc's line
# counts, so a dependency that a change pulls in shows up in its number
# (the debug endpoint's own HTTP responder keeps net/http and crypto/tls
# out). On Linux the binary is static, cgo on or off: transport's own
# sockets keep net, and with it runtime/cgo and libc, out. cmd/dnscache's
# TestNoHTTPStack fences all of them.
size:
	@d=$$(mktemp -d) && $(GO) build -o $$d/dnscache ./cmd/dnscache && \
		printf '%d bytes ./cmd/dnscache\n' $$(wc -c < $$d/dnscache); rc=$$?; rm -rf $$d; exit $$rc

# sim-check is the standing acceptance of every PR, made mechanical: the
# deterministic simulation still prints results_full.txt byte for byte, and
# the two experiments that post-date that file (restart, mesh) still print
# testdata/results_restart_mesh.txt (captured at commit 4ea8f79; to
# regenerate either file, redirect the same command into it and say why in
# CHANGES.md). dnssim's own exit status counts too: it is 1 when a claim
# fails that the deviation list does not record, so the output goes through
# a file, not a pipe that would report only cmp's status. The runs behind
# the tables execute on all cores; the whole target took 4 m 09 s on a
# 2-vCPU box (8 m 47 s before the planner, one run at a time) — still its
# own CI job beside `test`, not a step of `make check`.
sim-check:
	@d=$$(mktemp -d) && trap 'rm -rf $$d' EXIT && \
		$(GO) run ./cmd/dnssim -exp all > $$d/all && cmp $$d/all results_full.txt && \
		$(GO) run ./cmd/dnssim -exp restart,mesh > $$d/rm && cmp $$d/rm testdata/results_restart_mesh.txt

# claims prints the claim × seed matrix: every claim of `-exp all` checked
# at the quick scale for seeds 2–11 (seed 1 is the golden's), one row per
# claim: + holds, ~ fails as the deviation list records, x fails. It is a
# report, not a gate: a failing cell is a finding to list, never a reason
# to move a threshold. About 2 minutes on a 2-vCPU box.
claims:
	@$(call claims_matrix,-quick,2 3 4 5 6 7 8 9 10 11)

# claims-full prints the same matrix at full scale for seeds 1–10, seed 1
# being the golden's own run. Also a report, not a gate; about 14 minutes
# on a 2-vCPU box.
claims-full:
	@$(call claims_matrix,,1 2 3 4 5 6 7 8 9 10)

# claims_matrix runs `dnssim -exp all -v $(1)` for each seed in $(2) and
# folds the claim verdicts it prints on stderr into one row per claim.
define claims_matrix
d=$$(mktemp -d) && trap 'rm -rf $$d' EXIT && $(GO) build -o $$d/dnssim ./cmd/dnssim && \
	for s in $(2); do \
		$$d/dnssim $(1) -exp all -v -seed $$s 2>&1 >/dev/null | sed -n "s/^claim /$$s /p"; \
	done | awk -v seeds="$(2)" '{ id = $$2; if (!(id in text)) { order[n++] = id; t = $$0; sub(/^[^:]*: /, "", t); sub(/ \[.*$$/, "", t); text[id] = t } \
		cell[id, $$1] = ($$3 == "holds:" ? "+" : $$3 == "deviates" ? "~" : "x"); if ($$3 == "holds:") ok[id]++ } \
		END { k = split(seeds, seed, " "); printf "%-20s", "seed"; for (j = 1; j <= k; j++) printf " %s", seed[j]; printf "  held  claim\n"; \
			for (i = 0; i < n; i++) { id = order[i]; printf "%-20s", id; \
				for (j = 1; j <= k; j++) { printf " %s", cell[id, seed[j]]; for (p = 1; j < k && p < length(seed[j]); p++) printf " " } \
				printf "  %2d/%d  %s\n", ok[id], k, text[id] } }'
endef

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

# profile runs one workload of the meter, W (default miss), untraced,
# against the profile build of dnscache (cmd/dnscache/profile.go), then
# prints, for the saturation instance (the largest CPU profile of the
# run's three): the top of its CPU profile, the top of its allocations by
# object count, who calls time.Now and how often, and its allocation
# line. It calls the meter through `go run -C benchmark .`, which passes
# GOFLAGS on to the build of dnscache; benchmark/run.sh sets GOFLAGS
# itself, so through it the tag would be silently dropped. The profiles
# stay in the directory it prints.
W ?= miss
profile:
	@d=$$(mktemp -d) && \
		GOFLAGS=-tags=profile DNSCACHE_PROFILE=$$d $(GO) run -C benchmark . -workload $(W) -trace 0 && \
		p=$$(ls -S $$d/*.cpu.pprof | head -n 1) && \
		$(GO) tool pprof -top -nodecount=40 benchmark/out/bin/dnscache $$p && \
		$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 benchmark/out/bin/dnscache $${p%.cpu.pprof}.allocs.pprof && \
		$(GO) tool pprof -peek 'time.Now$$' benchmark/out/bin/dnscache $$p && \
		cat $${p%.cpu.pprof}.memstats && echo "profiles in $$d"

# bench-paper regenerates every table/figure benchmark in the root suite
# (the paper-reproduction harness, one iteration each).
bench-paper:
	$(GO) test -bench=. -benchtime=1x .

# fuzz is the CI smoke pass over the wire-format, persist-format and
# zone-file parsers, over the plain-query probe the read loop trusts in
# place of Unpack, and over the cache shard's open-addressed table.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnpack -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalName -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzQueryKey -fuzztime=30s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzParseStore -fuzztime=30s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzMeshFrame -fuzztime=30s ./internal/mesh
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/zone
	$(GO) test -run='^$$' -fuzz=FuzzShardTable -fuzztime=30s ./internal/cache
