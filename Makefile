# Development targets for the sicost repo. `make ci` is the gate a
# change must pass before review: build, vet, full tests, and the race
# detector over every package.

GO ?= go

.PHONY: all build test short vet race stress fuzz fuzzsmoke bench chaos crash walfuzz checkfuzz checksmoke docs trace-smoke overload servefuzz servechaos ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick loop: skips the stochastic anomaly hunt and long explorations.
short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Concurrency stress suite (goroutine fleets + property-based lock-table
# equivalence, plus the MPL-16 online-checker subscription) under the
# race detector, twice, to vary schedules.
stress:
	$(GO) test -race -count=2 -run 'TestStress|TestQuick' ./internal/storage ./internal/engine ./internal/workload

# Short fuzz smoke on both targets (30s each); CI-friendly bound.
fuzz:
	$(GO) test -fuzz FuzzCheckerHistories -fuzztime 30s ./internal/detsim
	$(GO) test -fuzz FuzzSQLMiniParse -fuzztime 30s ./internal/sqlmini

# Even shorter fuzz pass for the CI gate (10s per target).
fuzzsmoke:
	$(GO) test -fuzz FuzzCheckerHistories -fuzztime 10s ./internal/detsim
	$(GO) test -fuzz FuzzSQLMiniParse -fuzztime 10s ./internal/sqlmini

# Seeded chaos smoke: the default fault plan against a small SmallBank
# under 2PL with the online checker attached; exits nonzero if any
# standing invariant (conservation, lock audit, serializability, a
# lossless check) breaks.
chaos:
	$(GO) run ./cmd/smallbank -chaos -check -mode 2pl -customers 200 -hotspot 20 \
		-mpl 8 -ramp 100ms -measure 500ms -retry backoff -seed 7 > /dev/null
	$(GO) test -short -count=1 -run 'TestChaos|TestInjected|TestFaulted' ./internal/workload ./internal/detsim

# Crash/recover chaos: rotate a panic fault through the commit path
# (including mid-WAL-flush, inside the coalesced-sync window, at segment
# rotation, mid-checkpoint-link and mid-retirement) on an in-memory
# segment log with the checkpoint chain live, recover from the surviving
# log image after every crash and audit the durability contract — acked
# state survives, unacked state vanishes, money is conserved, recovery
# is idempotent. The second smallbank run exercises asynchronous commit
# on 4 KiB segments, auditing the durable-prefix contract instead
# (acked-durable commits survive; only the un-acked tail may vanish).
# The suite then runs once under the race detector and five more times
# without it, so a one-in-ten flake shows up here rather than later.
crash:
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -mode 2pl -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -crash-async -crash-segment-size 4096 -seed 11 > /dev/null
	$(GO) test -race -count=1 -run TestCrashChaos ./internal/workload
	$(GO) test -count=5 -run TestCrashChaos ./internal/workload

# Fuzz the recovery pipeline: arbitrary bytes through the frame decoder
# and the full engine rebuild, arbitrary multi-segment layouts through
# the segment classifier, and arbitrary strings through the
# segment-name parser; none may panic.
walfuzz:
	$(GO) test -fuzz 'FuzzRecoverLog$$' -fuzztime 10s ./internal/wal
	$(GO) test -fuzz FuzzRecoverSegments -fuzztime 10s ./internal/wal
	$(GO) test -fuzz FuzzParseSegmentName -fuzztime 5s ./internal/wal

# Fuzz the online windowed checker: arbitrary event streams (reordered,
# truncated, duplicated, unknown kinds) must never panic, stay
# deterministic, and never produce a false verdict on a valid stream.
checkfuzz:
	$(GO) test -fuzz FuzzOnlineCheck -fuzztime 10s ./internal/onlinecheck

# Online-checker smoke: short online-checked SmallBank runs across the
# isolation spectrum — bare SI (anomalies allowed and merely reported),
# SFU promotion on the commercial platform, SSI, and S2PL; for the
# serializability-guaranteeing configurations the live verdict gates the
# exit status.
checksmoke:
	$(GO) run ./cmd/smallbank -check -mode si -strategy SI -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode si -strategy PromoteWT-sfu -platform commercial \
		-mpl 8 -customers 300 -hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode ssi -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode 2pl -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null

# Documentation gate: vet plus cmd/doclint — every package must open
# with a conventional godoc comment, and every docs/*.md
# cross-reference (internal/ paths, cmd flags, sicost_* expvar names)
# must resolve against the code.
docs: vet
	$(GO) run ./cmd/doclint ./

# Trace smoke: a short traced SmallBank run, then full schema +
# lifecycle-invariant validation of the JSONL output (cmd/tracecheck).
trace-smoke:
	$(GO) run ./cmd/smallbank -mpl 8 -customers 500 -hotspot 50 -ramp 50ms \
		-measure 300ms -seed 11 -trace trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -q trace_smoke.jsonl
	rm -f trace_smoke.jsonl

# Parallel-commit scaling benchmarks; regenerates BENCH_engine.json with
# the committed pre-sharding baseline alongside the current numbers and
# the tracing overhead set (off / installed-but-disabled / capturing).
bench:
	$(GO) test -run XXX -bench 'BenchmarkCommitParallel' -benchtime 1s -benchmem ./internal/engine | tee bench_latest.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitTraced' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_traced.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitDurable' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_durable.txt
	$(GO) test -run XXX -bench 'BenchmarkOnlineCheck|BenchmarkIngest' -benchtime 1s -count 3 -benchmem ./internal/onlinecheck | tee bench_check.txt
	$(GO) test -run XXX -bench 'BenchmarkBeginAdmitted' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_admission.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitCheckpointMPL16' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_ckpt.txt
	$(GO) test -run XXX -bench 'BenchmarkServerRoundTrip' -benchtime 1s -count 3 -benchmem ./internal/server | tee bench_server.txt
	$(GO) run ./cmd/benchjson -o BENCH_engine.json \
		-note "Parallel commit benchmark, uniform keys; baseline = pre-sharding global-mutex design. The tracing set measures the serial commit cycle with the lifecycle recorder absent (off), installed-but-disabled (the <=5% budget: one atomic load per emission point), and capturing (enabled). The durable set prices the WAL: latency-only (no device) vs in-memory segment log (encoding + CRC32C framing) vs segment log on disk (OS write per flushed batch); the CommitDurableMPL16 group prices group commit at 16 committers against an on-disk segment log with a simulated 200us sync — baseline (one fsync per commit, the pre-coalescing loop) vs coalesced windows vs asynchronous commit vs 256KiB segment rotation, with commits/sync as the coalescing gauge. The checking set prices the online isolation checker: off/traced/checked time the same commit cycle with ring consumption off-timer (traced->checked is the <=5% commit-path budget), and BenchmarkIngest reports the checker's own off-path cost per event. The admission set prices the adaptive admission gate at Begin: off (Config.Admission nil, one pointer branch — the <=5% acceptance budget against the plain commit cycle) vs on (uncontended fast-path slot acquire/release around each transaction, AIMD controller ticking in the background). The checkpoint set prices checkpoint interference at 16 committers against an on-disk segment log with a large cold table: none (no checkpoints, the baseline) and fuzzy (the log-growth scheduler streaming chain links concurrently with commits); p99-ns is the acceptance gauge — fuzzy must stay within 2x of none. The server set prices one full network round-trip — request encode, loopback TCP, line parse, statement execute, response encode/decode — through cmd/sisqld's serving stack (internal/server) with an autocommit single-row SELECT." \
		baseline=bench/baseline_preshard.txt sharded=bench_latest.txt tracing=bench_traced.txt durable=bench_durable.txt checking=bench_check.txt admission=bench_admission.txt checkpoint=bench_ckpt.txt server=bench_server.txt
	rm -f bench_latest.txt bench_traced.txt bench_durable.txt bench_check.txt bench_admission.txt bench_ckpt.txt bench_server.txt

# Overload smoke: a short open-system run at an offered load well past
# saturation with the adaptive admission gate and per-transaction
# deadlines on, online-checked. The binary exits nonzero if the
# admission gate leaks a slot or waiter after the drain, or if the
# checker finds an isolation violation; a second run races shutdown
# against a full admission queue under the race detector.
overload:
	$(GO) run ./cmd/smallbank -open -rate 4000 -admission -deadline 50ms \
		-customers 300 -hotspot 20 -ramp 50ms -measure 400ms -seed 7 -check > /dev/null
	$(GO) test -race -count=1 -run 'TestAdmission|TestRunOpen' ./internal/engine ./internal/workload

# Fuzz the network server's wire layer: arbitrary bytes through the
# request decoder and through a full connection drive; the handler must
# neither panic nor wedge, and must leak no transaction on teardown.
servefuzz:
	$(GO) test -fuzz FuzzServerProtocol -fuzztime 10s ./internal/server

# Server chaos gate: repeated cycles of hundreds of churning TCP
# clients (mid-transaction RST kills, idle lapses, slow transactions)
# against a live server with wire faults armed and a mid-storm drain,
# alternating 2PL and SSI. Audits money conservation, zero leaked
# transactions/locks/gate slots, and a clean online-checker verdict.
servechaos:
	SERVECHAOS_FULL=1 $(GO) test -count=1 -timeout 600s -run TestServerChaos ./internal/workload
	$(GO) test -race -count=1 ./internal/server

ci: build docs test race stress fuzzsmoke chaos crash walfuzz checkfuzz checksmoke trace-smoke overload servefuzz servechaos
