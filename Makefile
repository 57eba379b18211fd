# Convenience targets; dune is the source of truth.

.PHONY: all build lint test test-fast test-crash test-service test-chaos trace-smoke trace-analyze bench bench-evals experiments examples clean

all: build

build:
	dune build @all

# Project-specific static analysis over the typedtree (DESIGN.md §8):
# determinism, NaN-safety, totality, race and lock-order invariants
# over lib/, bin/, bench/ and the trace-analyzer core.  @check writes
# the .cmt files harmony_sem reads (a plain build leaves the
# executables without them).  Exits non-zero on any unwaived finding
# beyond the committed baseline.
lint:
	dune build @check
	dune exec tools/sem/harmony_sem.exe -- \
	  --allowlist tools/sem/allowlist \
	  --baseline tools/sem/baseline --check-baseline \
	  lib bin bench tools/trace

# Includes the parallel-engine determinism test (registry tables at 1
# vs 4 domains must be byte-identical).
test:
	dune runtest

# What CI runs: a full build, the static analysis, then the
# unit/property suite (which includes the crash suite).
test-fast:
	dune build @all
	$(MAKE) lint
	dune runtest

# Durability only (DESIGN.md §10): the framing/sink/journal unit+property
# tests, the crash-injection harness (kill-at-every-record-boundary
# byte-identity, live fault-sink crashes, corrupt-input recovery), the
# log's differential test against the list-based model, group commit's
# crash windows and replay rule, and `serve --journal` / `--recover`
# run end to end against committed transcripts.
test-crash:
	dune exec test/test_main.exe -- test persist
	dune exec test/test_main.exe -- test crash
	dune exec test/test_main.exe -- test wal
	dune exec test/test_main.exe -- test group
	dune build @test/serve/runtest

# Sharded-service load tier (DESIGN.md §13): the service unit/property
# suite, then the seeded load generator driving 1k clients through the
# sharded service — every client's conversation must match a dedicated
# single-session server byte-for-byte, and the SLO budgets
# (bench/service_slo.json, logical ticks: p99 handle latency, p99
# admission queue delay, rejection rate) must hold.  The full 10k
# tier is the same binary with --clients 10000.
test-service:
	dune exec test/test_main.exe -- test service
	dune exec test/loadgen.exe -- --clients 1000 --shards 8 --domains 4

# Overload + chaos tier (DESIGN.md §15): the admission unit suite, then
# a 1k-client open-loop burst offering 10x the admission capacity —
# seeded bursts, slow-client stalls, poisoned deadlines — with every
# shard journaled and a seeded fault schedule crashing the journal
# mid-burst.  The service must never raise, rejected clients must retry
# to completion, accepted replies must stay byte-identical to dedicated
# single-session servers across recoveries, and the overload SLOs
# (queue-delay p99 scaled by the overload factor, excess rejection
# rate) must hold.
# The flight dump is written on every crash and at exit, so a failing
# run leaves the last few hundred events per shard for post-mortem
# (CI uploads chaos-flight.jsonl when this tier fails).
test-chaos:
	dune exec test/test_main.exe -- test admission
	dune exec test/loadgen.exe -- --clients 1000 --shards 4 --domains 4 \
	  --open-loop 10 --max-inflight 8 --chaos --flight-dump chaos-flight.jsonl

# Telemetry end-to-end (DESIGN.md §11): a seeded tune records a JSONL
# trace, `stats` summarizes it back, and the same run exports a Chrome
# trace.  The artifacts land in trace-smoke/ (CI uploads them).
trace-smoke:
	mkdir -p trace-smoke
	dune exec bin/harmony_cli.exe -- tune --budget 60 --seed 7 --top-n 4 \
	  --telemetry trace-smoke/tune.jsonl --trace-csv trace-smoke/tune.csv
	dune exec bin/harmony_cli.exe -- stats trace-smoke/tune.jsonl
	dune exec bin/harmony_cli.exe -- tune --budget 60 --seed 7 --top-n 4 \
	  --telemetry trace-smoke/tune.json,chrome > /dev/null

# Trace-attribution gate (DESIGN.md §16): the 1k-client loadgen tier
# records a full correlated trace, then harmony_trace must (a)
# attribute at least 95% of the p99 handle latency to named phases and
# (b) resolve the p99 bucket's exemplar trace id to a span whose
# critical path prints end to end.  Artifacts land in trace-analyze/
# (CI uploads them).
trace-analyze:
	mkdir -p trace-analyze
	dune exec test/loadgen.exe -- --clients 1000 --shards 8 --domains 4 \
	  --trace trace-analyze/service.jsonl --flight-dump trace-analyze/flight.jsonl
	dune exec tools/trace/harmony_trace.exe -- attribute \
	  --min-p99-attribution 0.95 --check-exemplar trace-analyze/service.jsonl
	dune exec tools/trace/harmony_trace.exe -- top trace-analyze/service.jsonl \
	  > trace-analyze/top.txt
	dune exec tools/trace/harmony_trace.exe -- self trace-analyze/service.jsonl \
	  > trace-analyze/self.txt

# Reproduction + ablations (every table and figure, then the design
# ablations).
bench:
	dune exec bench/main.exe

# Allocation-discipline smoke (DESIGN.md §12): evals/sec and minor
# words per evaluation for the MVA and DES objectives plus the
# batch+memo engine, and bytes allocated per message of a journaled
# service (journals in a temp dir); exits non-zero if minor words/eval
# or bytes/message regresses more than 2x over the recorded baseline.
# Re-record with
#   dune exec bench/evals.exe -- --write-baseline bench/evals_baseline.json
bench-evals:
	dune exec bench/evals.exe -- --check bench/evals_baseline.json

experiments:
	dune exec bin/harmony_cli.exe -- experiment all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/webservice_autotune.exe
	dune exec examples/matrix_partition.exe
	dune exec examples/history_reuse.exe
	dune exec examples/climate_groups.exe
	dune exec examples/blocked_matmul.exe

clean:
	dune clean
