GO ?= go

.PHONY: ci fmt vet vet-portable lint build test race fuzz-smoke bench benchsmoke perfbench-build perfbench-check profile record serve loadtest chaos chaossmoke cluster-smoke trace-smoke journal-smoke

# ci is the full gate: static checks (gofmt, go vet plus hybplint, the
# project-specific analyzers for nil-safe handles, determinism, atomic
# writes, and panic-safe goroutines), build, the whole test suite, a
# race-detector pass over the concurrent packages (the harness worker pool
# and the experiments that drive it), a 1-iteration benchmark smoke so the
# perf-tracking layer can't rot unnoticed, a short chaos run so the
# self-healing path can't either, a cluster smoke (coordinator, two
# worker processes, one killed mid-sweep) so distributed runs stay
# bit-identical to local ones, a trace smoke so -tracefile keeps
# producing loadable Chrome trace JSON, and a journal smoke (hybpd
# SIGKILLed mid-sweep, restarted on the same -journal) so crash recovery
# keeps losing nothing. perfbench-build compiles the benchmark module,
# which the root go build cannot see, and perfbench-check runs its three
# simulator workloads against their pinned output digests. fuzz-smoke
# fuzzes the decoders of untrusted bytes (job specs, hybpd job requests,
# traces, cache files, journal segments and cluster result uploads) and
# the fault-schedule spec parser.
# vet-portable keeps the non-amd64 file set compiling.
ci: fmt vet vet-portable lint build test race fuzz-smoke benchsmoke perfbench-build perfbench-check chaossmoke cluster-smoke trace-smoke journal-smoke

# fmt fails when any Go file in the tree, the nested perfbench module
# included, is not gofmt-clean; it lists the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# vet includes asmdecl, which checks the assembly kernels' frames and
# argument offsets against their Go declarations.
vet:
	$(GO) vet ./...

# vet-portable vets and builds for arm64, where internal/tage has no
# assembly kernels and runs its portable loops only: a change that
# compiles on amd64 alone fails here. It cross-compiles, so it needs no
# arm64 machine.
vet-portable:
	GOARCH=arm64 $(GO) vet ./internal/tage/ && GOARCH=arm64 $(GO) build ./...

# lint runs the project's own static-analysis suite (see README "Static
# analysis"). Findings fail the build; suppressions require a reasoned
# //lint:ignore <analyzer> <reason> comment.
lint:
	$(GO) run ./cmd/hybplint ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so hidden
# inter-test state can't calcify into an ordering dependency.
test:
	$(GO) test -shuffle=on ./...

# race runs the race detector where concurrency lives. The sim package is
# raced with -short: its harness-integration tests (runner_test.go,
# table3_test.go and TestGoldenDigestTable3, which runs Table III's cells
# concurrently) always run and exercise the worker pool; the slow
# single-threaded shape tests add nothing under the detector. The server and client packages are raced
# in full — the client test suite hammers one server with concurrent
# closed-loop clients, which is exactly what the detector should watch.
race:
	$(GO) test -race ./internal/cipher/ ./internal/keys/ ./internal/secure/ ./internal/pipeline/
	$(GO) test -race ./internal/faults/...
	$(GO) test -race ./internal/obs/...
	$(GO) test -race ./internal/harness/...
	$(GO) test -race ./internal/journal/...
	$(GO) test -race -short ./internal/sim/...
	$(GO) test -race -short ./internal/cluster/...
	$(GO) test -race ./internal/server/...

# fuzz-smoke fuzzes seven parsers, ten seconds each past their seed
# corpora. Six decode untrusted bytes: sim's job-spec decoder (what a
# cluster worker reads off the network; corpus in internal/sim/testdata/fuzz),
# where every accepted spec must re-encode to canonical bytes that decode
# to the same spec; hybpd's job-request normalization (corpus in
# internal/server/testdata/fuzz), where every accepted request must
# normalize again to itself and the same job key; the HYBPTRC1 trace
# decoder (corpus in internal/trace/testdata/fuzz), where every accepted
# stream must re-encode to the same header and events; the harness
# disk-cache envelope reader (corpus in internal/harness/testdata/fuzz),
# which may accept a file only when its checksum binds a payload that
# decodes, and must rename every other file to .bad intact; the journal's
# segment reader (corpus in internal/journal/testdata/fuzz), whose Replay
# must yield exactly the leading run of frames whose checksums verify; and
# the cluster coordinator's result handler (corpus in
# internal/cluster/testdata/fuzz), which may accept a payload only when its
# sum equals harness.Checksum of the payload bytes. The seventh is the
# -faults spec parser (corpus in internal/faults/testdata/fuzz), where
# every accepted spec's Config must render to a spec that parses to the
# same Config. No input may panic any of them. Each FuzzJournalReplay
# input costs a directory of files, so its new corpus entries are shrunk
# in 100 runs: under the default 60 s of minimizing, the first new entry
# would take the rest of the ten seconds.
fuzz-smoke:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s
	$(GO) test ./internal/harness/ -run '^$$' -fuzz '^FuzzCacheGet$$' -fuzztime 10s
	$(GO) test ./internal/journal/ -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz '^FuzzResultRequest$$' -fuzztime 10s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s

# chaos is the fault-injection gate: hybpexp -scale tiny under a pinned
# seeded fault schedule (worker panics, transient errors, cache corruption,
# torn writes, kill-and-resume on one cache dir), asserting the healed
# output is byte-identical to a fault-free baseline — plus the distributed
# variant, which kills a hybpworker process mid-sweep and asserts the
# coordinator reassigns its leases and still matches local -j 1 output.
# chaossmoke/cluster-smoke are the three-experiment subsets ci runs.
chaos:
	HYBP_CHAOS=full HYBP_CLUSTER=full HYBP_JOURNAL=full $(GO) test ./internal/chaos/ -v -count=1 -timeout 30m

chaossmoke:
	HYBP_CHAOS=smoke $(GO) test ./internal/chaos/ -run TestChaos -count=1 -timeout 10m

cluster-smoke:
	HYBP_CLUSTER=smoke $(GO) test ./internal/chaos/ -run TestClusterChaos -count=1 -timeout 10m

# journal-smoke is the crash-recovery gate: a real hybpd with -journal is
# SIGKILLed mid-sweep and restarted on the same directories; results must
# be byte-identical to an uninterrupted baseline, followed SSE streams must
# resume dense via Last-Event-ID, and the client must never resubmit.
journal-smoke:
	HYBP_JOURNAL=smoke $(GO) test ./internal/chaos/ -run TestJournalCrashRecovery -count=1 -timeout 10m

# trace-smoke runs a real hybpexp tiny sweep with -tracefile and validates
# the emitted Chrome trace-event JSON (structure + expected span names).
trace-smoke:
	HYBP_TRACE=smoke $(GO) test ./internal/chaos/ -run TestTraceSmoke -count=1 -timeout 10m

# serve runs the simulation daemon with a local cache directory.
serve:
	$(GO) run ./cmd/hybpd -addr :8080 -cachedir .hybpd-cache

# loadtest drives the service benchmark against a running `make serve`.
loadtest:
	$(GO) run ./cmd/hybpload -addr http://127.0.0.1:8080 -clients 8 -n 64

# bench writes BENCH_PR23.json: full micro-benchmarks (median of 3 runs
# each, diffed against the pinned BENCH_PR21.json report first, so the
# regression table is part of the run) plus a timed cold `hybpexp -scale
# quick all` at -j 1 and again at -j 2 (the -j 2 output must digest to the
# same FNV) and a warm rerun. The report's baseline block (cold seconds,
# StepHyBP ns/op) is read from BENCH_PR21.json; earlier reports stay as
# recorded, so point -out at a new file rather than an old one. The pinned
# report was recorded on another day, so host drift shows in the table as
# change: compare micro-benchmarks between the two commits with their
# test binaries run alternately on one host. Takes minutes; run on an
# otherwise idle machine or the wall-clock is noise.
bench:
	$(GO) run ./cmd/hybpbench -out BENCH_PR23.json -baseline BENCH_PR21.json

# benchsmoke compiles and runs every benchmark for exactly one iteration
# and skips the experiment timing — the cheap CI gate.
benchsmoke:
	$(GO) run ./cmd/hybpbench -smoke

# perfbench-build vets and compiles the nested benchmark module (perfbench/,
# its own go.mod), which imports internal packages of this one.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# perfbench-check runs the steady-state, switch-storm and attack-poc
# workloads for one second each (about 25 s in all) at seed 2022, where
# perfbench compares each first round's output with its pinned digest. It
# fails unless every result line reads "correct":true with no failed job:
# perfbench itself exits 0 on wrong output, so the line is checked here.
perfbench-check:
	@for w in steady-state switch-storm attack-poc; do \
	    line=$$(bash perfbench/run.sh --workload $$w --seed 2022 --seconds 1 --trace 0 | tail -n 1) || exit 1; \
	    echo "$$w: $$line"; \
	    case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; \
	    *) echo "perfbench-check: $$w produced wrong output"; exit 1;; esac; \
	done

# profile runs a quick-scale sweep under the CPU profiler and prints the
# top-10 flat functions — the first step of every perf PR (both rounds of
# the PR-8 optimization work started from exactly this view).
PROFILE_OUT ?= /tmp/hybp-cpu.pprof
profile:
	$(GO) run ./cmd/hybpexp -scale quick -seed 2022 -j 1 -progress=false \
	    -cpuprofile $(PROFILE_OUT) all > /dev/null
	$(GO) tool pprof -top -flat -nodecount=10 $(PROFILE_OUT)

# record regenerates the EXPERIMENTS.md reference runs: every table and
# figure, then Section VI's security analysis, which `all` leaves out.
record:
	$(GO) run ./cmd/hybpexp -scale medium -nbench 4 -nmix 4 \
	    -cycles 36000000 -warmup 4000000 \
	    -intervals "256000,4000000,16000000" all > experiments_record.txt
	$(GO) run ./cmd/hybpexp security > security_record.txt
