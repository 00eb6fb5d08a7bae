// Package exec is the Volcano-style execution engine: it interprets physical
// plan trees over the paged storage substrate, evaluates predicates with
// optional predicate caching, counts user-defined function invocations, and
// reports the paper's measurement: charged cost = physical page I/Os +
// synthetic spill I/Os + Σ (invocations × per-call cost).
//
// Each query runs on one goroutine: a serial operator tree that moves rows
// in batches of Env.BatchSize. Env's accounting is still concurrency-safe,
// because any number of sessions execute their own Envs at once over one
// shared catalog, pool and disk.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// ErrBudgetExceeded aborts a query whose charged cost passed the budget —
// how the harness reproduces the paper's "PullUp used up all available swap
// space and never completed" for Query 5.
var ErrBudgetExceeded = errors.New("exec: charged-cost budget exceeded")

// ErrCanceled wraps the context's cause when a query is aborted by
// cancellation or deadline; callers unwrap it (errors.Is) to reach
// context.Canceled or context.DeadlineExceeded.
var ErrCanceled = errors.New("exec: query canceled")

// Env is the execution context of one query. Run one query at a time per
// Env. All per-query mutable state — I/O accounting, synthetic charges, UDF
// invocation counters, predicate-cache contents — lives here, so any number
// of Envs over one catalog, pool, and disk execute concurrently without
// observing each other's charges.
type Env struct {
	// Ctx, when non-nil, cancels the query: every operator observes it on
	// the same cadence as the charged-cost budget check (checkAbort), so a
	// canceled or timed-out query unwinds promptly through the ordinary
	// error path — at every batch width — with no extra charges on the
	// fault-free path.
	Ctx context.Context
	// Cat resolves tables and functions.
	Cat *catalog.Catalog
	// Pool is the buffer pool all page access goes through. It is shared
	// between sessions; the query's own I/O accounting comes from the
	// per-Env tracker (see Charged), never from shared pool state.
	Pool *storage.BufferPool
	// Cache is the predicate cache (may be nil or disabled).
	Cache *pcache.Manager
	// Budget aborts execution when the charged cost exceeds it (0 = none).
	Budget float64
	// CountOnly discards result rows, keeping only the count.
	CountOnly bool
	// BatchSize is the rows-per-NextBatch width: 0 uses DefaultBatchSize,
	// and any other value (below 1 counts as 1) batches that many rows per
	// call. It is a width only — every width runs the same operators.
	// Charged cost is per tuple and operators preserve serial evaluation
	// order, so results and charged cost are identical at every width.
	BatchSize int
	// Profile enables per-operator runtime profiling (EXPLAIN ANALYZE v2):
	// every operator is wrapped in an instrumented iterator measuring wall
	// time and attributing physical I/O, and predicates count evaluations,
	// invocations, and cache traffic per plan node. Profiling is
	// observational only — charged cost, results, and row order are
	// byte-identical with it on or off; wall time is never charged. Off by
	// default, keeping the hot paths allocation-free.
	Profile bool
	// Validate, when set, checks every plan tree against plan.Validate's
	// structural invariants before execution. The facade snapshots it once
	// from PPLINT_VALIDATE at Open — not per query — so execution never
	// reads the process environment on the hot path.
	Validate bool
	// Transfer enables the predicate-transfer pre-filter pass: before the
	// main plan runs, Bloom filters flood selectivity across the join
	// graph's equality classes and the plan's scans consult them to drop
	// non-joining rows early (DESIGN.md §16). Filter builds and probes are
	// charged into the cost model (never free), and the pass is
	// deterministic, so results and charged cost stay invariant across
	// BatchSize. Off by default: byte-identical execution.
	Transfer bool

	// tracker is the query's private I/O ledger: a cold-pool simulation with
	// the shared pool's exact replacement geometry, charging a read exactly
	// where a solo run on a freshly flushed pool would have paid one. It
	// makes charged cost independent of what other sessions keep resident —
	// and byte-identical to the query's single-session figure.
	tracker *storage.IOTracker
	// funcCalls counts this query's UDF invocations per function — the state
	// that used to live (shared, racy across sessions) on the catalog's
	// FuncDef objects. Guarded by funcMu; per-function counters are atomics
	// so a bump does not re-enter the map lock.
	funcMu    sync.Mutex
	funcCalls map[*expr.FuncDef]*atomic.Int64
	// syntheticIO accumulates bulk synthetic charges (external-sort spill);
	// spillTuples counts per-tuple hash-partition charges so their total is
	// a single count×constant product — identical in any evaluation order.
	syntheticMu sync.Mutex
	syntheticIO float64
	spillTuples atomic.Int64
	// bloomAdds and bloomProbes count predicate-transfer filter operations;
	// like spillTuples, totals are count×constant products, so the charge is
	// exact in any evaluation order (batching-invariant).
	bloomAdds   atomic.Int64
	bloomProbes atomic.Int64
	// transfer holds the prepass's filters and counters for the running
	// query (nil when Transfer is off or the plan has no transferable join).
	transfer *transferState

	traceMu sync.Mutex
	trace   map[plan.Node]*int64
	// prof holds per-node runtime counters; non-nil only while Profile is
	// on, so the default path never consults or allocates it per row.
	prof map[plan.Node]*opCounters
}

// batchSize returns the effective NextBatch width.
func (e *Env) batchSize() int {
	if e.BatchSize == 0 {
		return DefaultBatchSize
	}
	if e.BatchSize < 1 {
		return 1
	}
	return e.BatchSize
}

// streamWidth is how many input rows a streaming operator (the hash join's
// probe side, the nested loop's inner) pulls per refill when its caller
// asked for want output rows: the batch width, but never more than asked.
// A row-driven consumer's width-1 pull thereby reaches through the
// operators below it, keeping their page reads in step with its own.
func (e *Env) streamWidth(want int) int {
	return min(want, e.batchSize())
}

// begin resets the per-query state at query start: a fresh private I/O
// tracker, fresh UDF counters, a cleared predicate cache. The query is
// *measured* cold — the tracker simulates a freshly flushed private pool —
// without flushing the shared pool other sessions are reading, so the
// figures match the paper's cold runs while sessions keep their warm pages.
// Callers that need a *physically* cold start (fault-injection determinism)
// evict explicitly via DB.EvictPool.
func (e *Env) begin() {
	e.tracker = storage.NewIOTracker(e.Pool)
	e.funcMu.Lock()
	e.funcCalls = map[*expr.FuncDef]*atomic.Int64{}
	e.funcMu.Unlock()
	if e.Cache != nil {
		e.Cache.Reset()
	}
	e.syntheticIO = 0
	e.spillTuples.Store(0)
	e.bloomAdds.Store(0)
	e.bloomProbes.Store(0)
	e.transfer = nil
	e.trace = map[plan.Node]*int64{}
	if e.Profile {
		e.prof = map[plan.Node]*opCounters{}
	} else {
		e.prof = nil
	}
}

// trk returns the query's private I/O tracker, creating one lazily for
// entry points that bypass begin (MatchingTIDs).
func (e *Env) trk() *storage.IOTracker {
	if e.tracker == nil {
		e.tracker = storage.NewIOTracker(e.Pool)
	}
	return e.tracker
}

// heap returns tab's heap file as a view whose page accesses charge into
// this query's private ledger. All executor table access goes through it.
func (e *Env) heap(tab *catalog.Table) *storage.HeapFile {
	return tab.Heap.WithTracker(e.trk())
}

// index returns t as a probe view charging leaf I/Os into this query's
// private ledger instead of the shared tree's accountant.
func (e *Env) index(t *btree.Tree) *btree.Tree {
	return t.WithAcct(e.trk().Acct())
}

// ioStats returns the page I/O charged to this query so far; the profiler
// diffs it around operator calls to attribute I/O per plan node.
func (e *Env) ioStats() storage.IOStats {
	return e.trk().Stats()
}

// invoke evaluates f on args, counting the invocation in the query's own
// counters (never the catalog's shared FuncDef state) and routing any real
// I/O the function performs — subquery predicates reading pages — into the
// query's private tracker.
func (e *Env) invoke(f *expr.FuncDef, args []expr.Value) (expr.Value, error) {
	e.funcCount(f).Add(1)
	if f.EvalIO != nil {
		return f.EvalIO(e.tracker, args)
	}
	if f.EvalErr != nil {
		return f.EvalErr(args)
	}
	return f.Eval(args), nil
}

// funcCount returns this query's invocation counter for f, creating it (and
// the map itself, for entry points that bypass begin) on first use.
func (e *Env) funcCount(f *expr.FuncDef) *atomic.Int64 {
	e.funcMu.Lock()
	if e.funcCalls == nil {
		e.funcCalls = map[*expr.FuncDef]*atomic.Int64{}
	}
	c, ok := e.funcCalls[f]
	if !ok {
		c = new(atomic.Int64)
		e.funcCalls[f] = c
	}
	e.funcMu.Unlock()
	return c
}

// funcCharge returns Σ invocations × per-call cost over this query's own
// counters. RealWork functions charge zero: their page traffic is metered
// directly through the tracker.
func (e *Env) funcCharge() float64 {
	e.funcMu.Lock()
	defer e.funcMu.Unlock()
	var total float64
	for f, c := range e.funcCalls {
		if !f.RealWork {
			total += float64(c.Load()) * f.Cost
		}
	}
	return total
}

// ChargeSynthetic adds simulated spill I/O (external sort runs, hash
// partitions) in random-I/O units.
func (e *Env) ChargeSynthetic(units float64) {
	e.syntheticMu.Lock()
	e.syntheticIO += units
	e.syntheticMu.Unlock()
}

// ChargeSpillTuple charges one tuple's worth of Grace-hash partition spill.
// The charge is a counter, not a float accumulation, so the total is exact
// and independent of the order it is charged in.
func (e *Env) ChargeSpillTuple() { e.spillTuples.Add(1) }

// ChargeBloomAdd charges n predicate-transfer filter insertions
// (cost.BloomAddPerTuple each); counter-based like ChargeSpillTuple, so the
// total is exact in any evaluation order.
func (e *Env) ChargeBloomAdd(n int) { e.bloomAdds.Add(int64(n)) }

// ChargeBloomProbe charges n predicate-transfer filter probes
// (cost.BloomProbePerTuple each).
func (e *Env) ChargeBloomProbe(n int) { e.bloomProbes.Add(int64(n)) }

// synthetic returns the synthetic I/O charged so far.
func (e *Env) synthetic() float64 {
	e.syntheticMu.Lock()
	bulk := e.syntheticIO
	e.syntheticMu.Unlock()
	return bulk + float64(e.spillTuples.Load())*cost.HashSpillPerTuple +
		float64(e.bloomAdds.Load())*cost.BloomAddPerTuple +
		float64(e.bloomProbes.Load())*cost.BloomProbePerTuple
}

// Charged returns the charged cost so far: the query's page I/Os plus
// synthetic I/O plus function-invocation charges — all read from per-Env
// state, so concurrent sessions' figures never bleed into each other.
func (e *Env) Charged() float64 {
	return float64(e.trk().Stats().Total()) + e.synthetic() + e.funcCharge()
}

// checkAbort is the per-operator abort check, called on each operator's
// existing budget-check cadence: it returns ErrBudgetExceeded when the
// charged cost passed the budget, and an ErrCanceled-wrapped context cause
// when Ctx is canceled. Both conditions abort through the ordinary error
// path, so iterator teardown (Close, unpin) runs exactly
// as it does for any other execution error.
func (e *Env) checkAbort() error {
	if e.Budget > 0 && e.Charged() > e.Budget {
		return ErrBudgetExceeded
	}
	if e.Ctx != nil {
		select {
		case <-e.Ctx.Done():
			return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(e.Ctx))
		default:
		}
	}
	return nil
}

// nodeCounter returns the per-node row counter for EXPLAIN ANALYZE,
// creating it on first use. Nested-loop joins rebuild their inner subtree
// mid-query, so a node may be looked up more than once.
func (e *Env) nodeCounter(n plan.Node) *int64 {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	counter, ok := e.trace[n]
	if !ok {
		counter = new(int64)
		e.trace[n] = counter
	}
	return counter
}

// nodeProf returns the per-node profiling counters, creating them on first
// use. Only called while profiling is on (e.prof non-nil).
func (e *Env) nodeProf(n plan.Node) *opCounters {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	c, ok := e.prof[n]
	if !ok {
		c = &opCounters{}
		e.prof[n] = c
	}
	return c
}

// Stats reports the resources consumed by one executed query.
type Stats struct {
	// IO is the physical page traffic.
	IO storage.IOStats
	// SyntheticIO is simulated spill traffic in I/O units.
	SyntheticIO float64
	// FuncCharge is Σ invocations × per-call cost.
	FuncCharge float64
	// Invocations maps function name → call count.
	Invocations map[string]int64
	// CacheHits and CacheMisses report predicate-cache traffic.
	CacheHits, CacheMisses int64
	// CacheEntries is the number of cached bindings at query end (the
	// paper's §5.1 hash tables are per-query, so this is their peak size).
	CacheEntries int
	// Rows is the number of rows the executor produced. This is an executor
	// measurement, not the size of the delivered result set: with top-k
	// planning off, the SQL facade's LIMIT truncates Result.Rows after
	// execution without touching this count (Rows is the full pre-LIMIT
	// cardinality), while with a TopK/Limit plan root the executor itself
	// stops at the LIMIT bound and Rows is that post-limit count (≤ k) —
	// fewer rows were genuinely produced, which is the point of early
	// termination. COUNT(*) replaces it with the single aggregate row.
	Rows int
	// Transfer summarizes the predicate-transfer stage (nil unless
	// Env.Transfer was on and the plan had a transferable join).
	Transfer *TransferStats
}

// TransferStats summarizes one query's predicate-transfer stage.
type TransferStats struct {
	// Classes is the number of join-key equivalence classes spanning two or
	// more tables; FiltersBuilt counts filter (re)builds across both passes
	// and BuildRows the keys inserted into them.
	Classes      int   `json:"classes"`
	FiltersBuilt int   `json:"filters_built"`
	BuildRows    int64 `json:"build_rows"`
	// Probes counts every filter test (prepass and main scans); Pruned the
	// rows those tests rejected.
	Probes int64 `json:"probes"`
	Pruned int64 `json:"pruned"`
	// PrepassCharged is the charged cost of the prepass itself (its page
	// I/O, filter builds and probes, and any cache-warming invocations);
	// ProbeCharge is the charged cost of the main scans' probes. Both are
	// part of Stats.Charged — transfer's overhead is never free.
	PrepassCharged float64 `json:"prepass_charged"`
	ProbeCharge    float64 `json:"probe_charge"`
	// FPEst is the analytic false-positive estimate averaged over the final
	// class filters; FPActual the measured rate over the main scans'
	// non-member probes (−1 unless profiling captured the key sets).
	FPEst    float64 `json:"fp_est"`
	FPActual float64 `json:"fp_actual"`
}

// Charged is the paper's single-number measurement in random-I/O units.
func (s Stats) Charged() float64 {
	return float64(s.IO.Total()) + s.SyntheticIO + s.FuncCharge
}

// String renders the stats compactly. Predicate-cache traffic is appended
// when there was any, so ppsql and ppbench output shows cache behavior
// without JSON; cache-free runs render exactly as before.
func (s Stats) String() string {
	base := fmt.Sprintf("charged=%.0f (io=%d synth=%.0f func=%.0f) rows=%d",
		s.Charged(), s.IO.Total(), s.SyntheticIO, s.FuncCharge, s.Rows)
	if s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheEntries != 0 {
		base += fmt.Sprintf(" cache(hits=%d misses=%d entries=%d)",
			s.CacheHits, s.CacheMisses, s.CacheEntries)
	}
	if t := s.Transfer; t != nil {
		base += fmt.Sprintf(" transfer(classes=%d built=%d probes=%d pruned=%d)",
			t.Classes, t.FiltersBuilt, t.Probes, t.Pruned)
	}
	return base
}

// finish assembles the stats at query end from the query's own counters.
func (e *Env) finish(rows int) Stats {
	inv := map[string]int64{}
	var charge float64
	e.funcMu.Lock()
	for f, c := range e.funcCalls {
		n := c.Load()
		if n > 0 {
			inv[f.Name] = n
		}
		if !f.RealWork {
			charge += float64(n) * f.Cost
		}
	}
	e.funcMu.Unlock()
	var hits, misses int64
	var entries int
	if e.Cache != nil {
		hits, misses, entries = e.Cache.Stats()
	}
	s := Stats{
		IO:           e.trk().Stats(),
		SyntheticIO:  e.synthetic(),
		FuncCharge:   charge,
		Invocations:  inv,
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheEntries: entries,
		Rows:         rows,
	}
	if e.transfer != nil {
		s.Transfer = e.transfer.stats(e)
	}
	return s
}
