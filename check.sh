#!/bin/sh
# check.sh — the repository's full verification gate. Tier-1 CI runs
# `go build ./... && go test ./...`; this script is the stricter local/CI
# superset: vet, the project's own static analyzers (pplint), the build,
# and the full test suite under the race detector.
set -e

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/pplint ./..."
go run ./cmd/pplint ./...

echo "==> pplint dataflow analyzers (pinbalance, chargeonce, atomicconsistency, lockbalance, suppress)"
# The full run above already includes these; this explicit pass pins the
# CFG/dataflow analyzers and the suppression audit as a named gate (and is
# what CI should quote on failure). The second invocation self-cleans the
# lint package: the analyzers must pass over their own implementation.
go run ./cmd/pplint -only pinbalance,chargeonce,atomicconsistency,lockbalance,suppress ./...
go run ./cmd/pplint ./internal/lint

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench smoke (go test -bench Fig3 -benchtime 1x)"
go test -run '^$' -bench Fig3 -benchtime 1x .

echo "==> planner micro-benchmark smoke (go test -bench BenchmarkPlan -benchtime 1x)"
# Plans fixed adhoc-shaped 3-5-way joins with Migration and Robust once
# each; a planning error fails the gate.
go test -run '^$' -bench BenchmarkPlan -benchtime 1x ./internal/optimizer

echo "==> placement fuzz (FuzzPlacementAgreesWithExhaustive, 20 s)"
# Differential fuzzing beyond the checked-in seed corpus (plain go test
# replays that corpus): every System R algorithm and Robust must return the
# Exhaustive oracle's rows and keep the incremental-costing contract.
go test -run '^$' -fuzz FuzzPlacementAgreesWithExhaustive -fuzztime 20s ./internal/optimizer

echo "==> batch-executor gate (ppbench -batch)"
# Runs Queries 1-5 tuple-at-a-time (BatchSize 1, the legacy executor) and
# batched on one database; exits nonzero if the batched executor's result
# sets, row order, or charged cost diverge from tuple-at-a-time.
go run ./cmd/ppbench -batch -iters 3 -json -scale 0.02

echo "==> pool-pressure gate (ppbench -batch at scale 0.1)"
# The same gate at scale 0.1, where the default buffer pool (about 1/8 of
# the data pages) is far below the data size: Query 5's nested-loop inner
# is rescanned under eviction, so charged cost depends on the order the
# query touches pages. Tuple and batched runs must still charge exactly the
# same cost. No -json: BENCH_batch.json keeps the scale-0.02 record.
go run ./cmd/ppbench -batch -iters 1 -scale 0.1

echo "==> fault/timeout gate (ppbench -faults)"
# Runs Queries 1-5 under deterministic injected read faults and aggressive
# deadlines, tuple-at-a-time and batched; exits nonzero if any run panics,
# hangs, silently truncates, returns an error not wrapping the injected
# fault, or leaks pinned frames/goroutines.
go run ./cmd/ppbench -faults -seeds 2 -scale 0.02

echo "==> profiling gate (ppbench -profile)"
# Runs Queries 1-5 plus the Figure 1 example, each unprofiled and then with
# per-operator profiling on; exits nonzero if profiling changes any result
# set or charged cost (profiling must be strictly observational).
go run ./cmd/ppbench -profile -json -scale 0.02

echo "==> predicate-transfer gate (ppbench -transfer)"
# Runs the join queries (3-5) with predicate transfer off and on,
# tuple-at-a-time and batched; exits nonzero if any transfer-on result set
# diverges from transfer-off, or if a query's batched run charges a
# different cost than its tuple run (transfer off or on).
go run ./cmd/ppbench -transfer -iters 3 -json -scale 0.02

echo "==> top-k gate (ppbench -topk)"
# Runs ORDER BY ... LIMIT k queries with top-k execution off and on,
# tuple-at-a-time and batched, at k in {1,10,100,1000}; exits nonzero if any
# top-k-on result diverges row-for-row from top-k-off or the ordered-index
# flagship at k=10 misses a 2x charged-cost reduction.
go run ./cmd/ppbench -topk -iters 3 -json -scale 0.02

echo "==> multi-session server gate (ppbench -server)"
# Runs the figure queries from 1/2/4/8 concurrent sessions against one DB
# behind the admission-controlled server, plus a shed probe (burst against a
# single slot with no queue) and a tenant-quota probe (DNF at the boundary,
# then rejection); exits nonzero if any concurrent result diverges from the
# serial baseline in rows or charged cost, the plan cache never hits, a shed
# query errors with anything but ErrOverloaded, or the quota sequence is
# wrong.
go run ./cmd/ppbench -server -sessions 1,2,4,8 -iters 3 -json -scale 0.02

echo "==> estimate-error/feedback gate (ppbench -feedback)"
# Sweeps injected estimate error (e in {1,2,4,8}, both directions) over a
# join-order-sensitive query under PushDown/Migration/Robust with feedback
# off, then closes the loop with feedback on; exits nonzero if any result
# multiset diverges, the algorithms disagree at e=1, Robust's worst-case
# charged cost loses at e>=4, or the feedback rerun fails to repair the
# misestimate in one refresh. Every run has a deadline, so the gate ends
# with a verdict at any scale.
go run ./cmd/ppbench -feedback -json -scale 0.02

echo "OK"
