GO ?= go

.PHONY: all vet lint build test race flake perfbench-test bench bench-json bench-matrix bench-matrix-smoke bench-server bench-server-smoke trace-verify chaos verify-protocol check

all: check

vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt prints nothing when clean) and
# runs go vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy subset under the race detector: the parallel
# (Workers>1) trace/sweep tests, the mutator-vs-collector stress and
# race interleaving tests, and the sharded-allocator stress test that
# churns allocations while minor and full cycles run.
race:
	$(GO) test -race -run 'Race|Stress|Parallel' ./...

# flake reruns the root package's concurrency tests at -count=10 under
# GOMAXPROCS 1, 2 and 4 while a busy-loop CPU hog competes for the
# processors, so a test that leans on wall-clock luck or an idle host
# fails here rather than intermittently in tier-1.
flake:
	@sh -c 'while :; do :; done' & hog=$$!; \
	trap 'kill $$hog' EXIT; trap 'exit 1' HUP INT PIPE TERM; \
	for p in 1 2 4; do \
		echo "flake: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=10 -run 'Stress|Race|Parallel' . || exit 1; \
	done

# perfbench-test runs the repository benchmark's own tests (perfbench/
# is a module of its own, so ./... above does not reach it).
perfbench-test:
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The report experiments of cmd/gcbench write BENCH_<experiment>.json
# in one envelope (BENCHMARKS.md). Each reads the committed file first
# and uses it as its baseline only when it came from a host with this
# host's fingerprint; each exits 2 when a gate flags a regression.
#
# bench-json sweeps the allocation path over mutator counts (1/2/4/8)
# and shard counts (single lock vs per-class) into BENCH_alloc.json,
# then the write barrier over mutator counts × barrier modes × write
# APIs into BENCH_barrier.json, then the telemetry surface (tracer +
# flight recorder + pause SLO, on vs off, plus the scrape-vs-snapshot
# agreement check) into BENCH_telemetry.json.
bench-json:
	$(GO) run ./cmd/gcbench -experiment alloc
	$(GO) run ./cmd/gcbench -experiment barrier
	$(GO) run ./cmd/gcbench -experiment telemetry

# bench-matrix runs the full contention matrix: mutators × collector
# workers × alloc shards × barrier mode × workload contention (churn,
# Zipf-skewed, auction) into BENCH_matrix.json, with interleaved
# passes, the shape gate against a same-host baseline and structural
# sanity checks (see BENCHMARKS.md and EXPERIMENTS.md §4). The smoke
# variant is the seconds-long CI subset of the same sweep; it writes
# BENCH_matrix-smoke.json and compares against the committed full
# report.
bench-matrix:
	$(GO) run ./cmd/gcbench -experiment matrix

bench-matrix-smoke:
	$(GO) run ./cmd/gcbench -experiment matrix -smoke

# bench-server runs the server-mode overload experiment: the request
# engine under an open-loop Poisson arrival sweep at multiples of a
# capacity calibrated on this host, admission controller on vs naive,
# into BENCH_server.json. The host-independent gate requires the
# admitted legs to shed with bounded p99.9 and zero OOM while the naive
# top-rate leg measurably breaches the SLO or OOMs — see BENCHMARKS.md
# and EXPERIMENTS.md §5. The smoke variant is the seconds-long CI subset
# (one underload + one overload pair) into BENCH_server-smoke.json.
bench-server:
	$(GO) run ./cmd/gcbench -experiment server

bench-server-smoke:
	$(GO) run ./cmd/gcbench -experiment server -smoke

# verify-protocol runs the deterministic protocol-verification harness
# (cmd/gcverify, internal/modelcheck). Positive leg: every named
# scenario's interleavings are enumerated bounded-exhaustively
# (preemption bound 1, depth 400) under the virtual scheduler and must
# be violation-free. Negative leg: re-introducing the historical
# flush-before-ack ordering bug must be caught with a minimized
# schedule, and the written replay must reproduce the violation when
# re-executed — the harness has to be able to find the bug class it
# exists for, or a green positive leg means nothing.
verify-protocol:
	$(GO) run ./cmd/gcverify -scenario all
	@tmp=$$(mktemp -d); rc=0; \
	if $(GO) run ./cmd/gcverify -scenario flush-vs-ack -break flush-before-ack -out $$tmp/replay.json >$$tmp/neg.txt 2>&1; then \
		echo "verify-protocol: FAILED — re-introduced flush-before-ack bug was not caught"; cat $$tmp/neg.txt; rc=1; \
	elif $(GO) run ./cmd/gcverify -replay $$tmp/replay.json >$$tmp/rep.txt 2>&1; then \
		echo "verify-protocol: FAILED — replay did not reproduce the violation"; cat $$tmp/rep.txt; rc=1; \
	else \
		echo "verify-protocol: OK (bug caught, minimized, and replay reproduced)"; \
	fi; \
	rm -rf $$tmp; exit $$rc

# chaos runs a short fixed-seed fault-injection campaign under the race
# detector: every schedule (stalls, slow workers, transient OOM, the
# allocstorm campaigns against the tiered allocation path, failing sink,
# close race) must finish with zero Verify/self-check violations. The
# fixed seed keeps the fault schedule reproducible run to run.
chaos:
	$(GO) run -race ./cmd/gcchaos -seed 1

# trace-verify round-trips the observability pipeline end to end: run a
# small traced workload under each barrier mode, then require gcreport
# to parse the JSONL and render the pause CDF and phase breakdown from
# it. The batched leg additionally requires "barrierflush" events in
# the trace — the deferred barrier must be observable, not just fast.
trace-verify:
	@tmp=$$(mktemp -d) && rc=0; \
	{ $(GO) run ./cmd/gctrace -profile Anagram -scale 0.05 -trace $$tmp/trace.jsonl >/dev/null 2>&1 \
	  && $(GO) run ./cmd/gcreport $$tmp/trace.jsonl > $$tmp/report.txt \
	  && grep -q 'Pause-time CDF' $$tmp/report.txt \
	  && grep -q 'Cycle phase breakdown' $$tmp/report.txt \
	  && $(GO) run ./cmd/gctrace -profile Anagram -scale 0.05 -barrier batched -trace $$tmp/batched.jsonl >/dev/null 2>&1 \
	  && grep -q '"barrierflush"' $$tmp/batched.jsonl \
	  && $(GO) run ./cmd/gcreport $$tmp/batched.jsonl > $$tmp/batched.txt \
	  && grep -q 'Pause-time CDF' $$tmp/batched.txt \
	  && echo "trace-verify: OK ($$(wc -l < $$tmp/trace.jsonl | tr -d ' ') eager + $$(wc -l < $$tmp/batched.jsonl | tr -d ' ') batched events)"; } \
	|| { rc=$$?; echo "trace-verify: FAILED"; cat $$tmp/report.txt $$tmp/batched.txt 2>/dev/null; }; \
	rm -rf $$tmp; exit $$rc

check: lint build test race perfbench-test chaos trace-verify verify-protocol
