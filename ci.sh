#!/bin/sh
# ci.sh — the full verification gate (tier-1 plus formatting, vet, the race
# detector, a benchmark and fuzz smoke, and the CLI verdicts). Stdlib and
# toolchain only; no external dependencies.
#
#   ./ci.sh
#
# Steps:
#   1. gofmt -l            — fail on any unformatted file
#   2. go vet ./...        — static analysis
#   3. go build ./...      — everything compiles
#   4. go test ./...       — full test suite (tier-1), including the metrics
#      golden-file guard (refresh with
#      `go test ./internal/metrics -run Golden -update-golden`)
#   5. examples            — `go run` of every example under examples/; each
#      panics on a wrong result (~3 s together on 2 CPUs)
#   6. benchmark/ module   — `go vet` and the ~4 s smoke test of the separate
#      module under benchmark/, which compiles against internal/ packages
#      but is never built by tier-1
#   7. go test -race ./... — the same suite, root package included, under
#      the race detector
#   8. race stress         — 30 runs each of the tests that race region
#      transitions, flushes, reads and writes against Close and compaction,
#      the store's point and range batches (MultiGet, and MultiScan of
#      one-part and spanning ranges) against flush and compaction, a
#      client MultiScan and every client write against splits and
#      merges, the release of a flushed memtable, the topology churn
#      property, and the index pre-image reads against background
#      compaction, plus, under the race detector, the memtable's lock-free
#      readers against a writer that grows its arena and the store tests
#      that race reads, flushes and writes against background compaction
#      rounds (~70 s wall on 2 CPUs); one failure fails the step
#   9. benchmark smoke     — every benchmark compiles and survives one
#      iteration (catches bit-rot in bench-only code paths)
#  10. fuzz smoke          — 10 s each of FuzzOpen over the SSTable decoders
#      and FuzzReplaySegment over the WAL segment decoder (data frames
#      and non-data kinds, which replay treats as corrupt)
#  11. CLI gates           — what only the commands assert: the `lsmtool`
#      walkthrough (which prints Store.Stats() and, with -stats, the
#      registry) and `lsmtool stats` run to completion, `lsmtool verify`
#      exit codes, and the five `chaoskit` verdicts (two fixed-seed fault
#      runs, the second with fan-in 2 to keep compaction running,
#      -integrity, -timetravel, -elastic); the fault runs and -elastic
#      include the topology check
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== examples =="
# Each example checks its own narrative and panics on a wrong result; the
# compile in step 3 alone would not catch an API change that breaks one.
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

echo "== benchmark/ module (vet + smoke) =="
(cd benchmark && go vet ./... && go test ./...)

echo "== go test -race =="
go test -race ./...

echo "== race stress (30 runs each) =="
# Each test below once failed only a few runs in a hundred; one pass of the
# suite cannot tell those apart from fixed.
go test -count=30 -run 'TestBalancerRacesTopologyChanges|TestTopologyChurnProperty|TestOpenRegionWaitsForOpenInFlight|TestReadsRaceClose|TestAsOfReadsRaceCompaction|TestPipelineRacesClose|TestFlushRacesClose|TestPartScanRacesFlushAndCompaction|TestMultiGetRacesFlushAndCompaction|TestMultiScanAcrossSplitAndMerge|TestWritesAcrossSplitAndMerge|TestFlushReleasesMemtable' ./internal/cluster ./internal/lsm
go test -count=30 -run 'TestPreImagePointReadsMatchRowRead' ./internal/core
go test -race -count=30 -run 'TestConcurrentReadersAndWriters|TestReadsRaceArenaGrowth' ./internal/memtable
go test -race -count=30 -run 'TestMultiGetRacesFlushAndCompaction|TestPartScanRacesFlushAndCompaction|TestReadsRaceConcurrentCompactions|TestBackgroundCompactionErrorSurfaced|TestAutoFlushAndCompact' ./internal/lsm

echo "== benchmark smoke (one iteration each) =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== fuzz smoke (SSTable and WAL decoders, 10 s each) =="
# Minimization is bounded: at its 60 s default the first new input found
# is minimized for the rest of the run, and the smoke stops executing.
go test -run=NONE -fuzz=FuzzOpen -fuzztime=10s -fuzzminimizetime=100x ./internal/sstable
go test -run=NONE -fuzz=FuzzReplaySegment -fuzztime=10s -fuzzminimizetime=100x ./internal/wal

echo "== lsmtool =="
# The walkthrough and the table-layout dump: each panics on a failed store
# operation.
go run ./cmd/lsmtool -rows 500 -stats > /dev/null
go run ./cmd/lsmtool stats -rows 500 -tables 3 > /dev/null
# Offline sweep gate: a clean store must verify; a corrupted one must be
# detected AND fail the process (exit status is the contract CI relies on).
go run ./cmd/lsmtool verify -rows 500 -tables 3 > /dev/null
if go run ./cmd/lsmtool verify -rows 500 -tables 3 -corrupt 1 > /dev/null 2>&1; then
    echo "lsmtool verify did not fail on a corrupted table" >&2
    exit 1
fi

echo "== chaoskit verdicts =="
# Fixed-seed fault injection, all four schemes: seeded crashes, partitions,
# disk and network faults under a live workload, every invariant checked per
# scheme (DESIGN.md §9). Short duration keeps the pass bounded (~10 s).
go run ./cmd/chaoskit -seed 1 -scenarios 4 -duration 400ms -trace=false
# Same harness with the tiered compaction engine kept hot: with fan-in 2,
# two same-tier tables arm a bounded merge round, so tombstone handling and
# the compaction hook's index repairs run under the same fault schedule.
go run ./cmd/chaoskit -seed 2 -scenarios 2 -duration 300ms -trace=false -compact-fanin 2
# Integrity pair (DESIGN.md §11): faulted run (scrubber must detect armed
# misreads, anti-entropy must repair injected divergence) plus the unfaulted
# false-positive control.
go run ./cmd/chaoskit -scenarios 0 -integrity -trace=false
# Time-travel crash gate (DESIGN.md §13): tear every WAL write during a burst
# of data appends, acknowledge more mutations past the tears, crash without
# Close — recovery must replay exactly the mutations acknowledged since the
# flush, in order and nothing else, and golden as-of reads hold.
go run ./cmd/chaoskit -scenarios 0 -timetravel -trace=false
# Elastic verdict (DESIGN.md §14): seeded server adds, a decommission, one
# merge through DB.MergeRegions, a split and continuous balancing under
# live load; every
# per-scheme invariant must hold, every region must be served where the
# master routes it (the topology verdict, checked after every scenario), and
# the AUQ backlog must stay under its cap.
go run ./cmd/chaoskit -scenarios 0 -elastic -trace=false

echo "CI PASSED"
