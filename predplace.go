// Package predplace is a self-contained object-relational query engine built
// to reproduce "Practical Predicate Placement" (Hellerstein, SIGMOD 1994).
//
// It bundles a paged storage engine with B-tree indexes, a Volcano executor
// with predicate caching, a SQL front-end for conjunctive queries with
// expensive user-defined predicates and correlated IN-subqueries, and a
// System R-style optimizer offering the paper's placement algorithms:
// PushDown+, PullUp, PullRank, Predicate Migration, LDL, and an Exhaustive
// oracle.
//
// Quick start:
//
//	db, _ := predplace.Open(predplace.Config{Scale: 0.05})
//	res, _ := db.Query("SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly100(t10.u20)",
//		predplace.Migration)
//	fmt.Println(res.Plan)
//	fmt.Println(res.Stats)
package predplace

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/exec"
	"predplace/internal/expr"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/sqlparse"
	"predplace/internal/storage"
)

// Algorithm selects the predicate-placement scheme.
type Algorithm = optimizer.Algorithm

// The available placement algorithms (see Table 1 of the paper).
const (
	NaivePushDown = optimizer.NaivePushDown
	PushDown      = optimizer.PushDown
	PullUp        = optimizer.PullUp
	PullRank      = optimizer.PullRank
	Migration     = optimizer.Migration
	LDL           = optimizer.LDL
	LDLIKKBZ      = optimizer.LDLIKKBZ
	Exhaustive    = optimizer.Exhaustive
	// ExhaustiveBushy extends the oracle to bushy join trees.
	ExhaustiveBushy = optimizer.ExhaustiveBushy
	// Robust picks the plan minimizing worst-case cost over an estimate-error
	// interval [sel/e, sel·e] (see Config.RobustE) instead of the point
	// estimate.
	Robust = optimizer.Robust
)

// Algorithms lists every implemented placement algorithm.
func Algorithms() []Algorithm { return optimizer.Algorithms() }

// Config controls database creation.
type Config struct {
	// Scale multiplies the benchmark database's cardinalities
	// (1.0 reproduces the paper's ~110 MB database; 0 skips loading the
	// benchmark tables entirely, for user-defined schemas).
	Scale float64
	// Tables selects which benchmark relations tN to load (nil = t1…t10).
	Tables []int
	// PoolPages sets the buffer pool size in 8 KiB pages (0 = derived).
	PoolPages int
	// Caching enables predicate caching (§5.1).
	Caching bool
	// PerFunctionCache switches from Montage's per-predicate caching to the
	// per-function alternative of [Jhi88]/[HS93a]: predicates calling the
	// same function share cache entries.
	PerFunctionCache bool
	// CacheMaxEntries bounds each predicate's cache table (0 = unbounded);
	// when full an arbitrary entry is evicted (§5.1 notes caches "can be
	// limited in size, using any of a variety of replacement schemes").
	CacheMaxEntries int
	// Budget aborts queries whose charged cost exceeds it (0 = unlimited) —
	// used to reproduce the paper's did-not-finish result for Query 5.
	Budget float64
	// BatchSize is the executor's rows-per-NextBatch width: 0 uses the
	// tuned default (exec.DefaultBatchSize), any other value sets the width.
	// Every width runs the same operators; results, row order, and charged
	// cost are identical at every width — batching only amortizes per-row
	// interface calls, lock acquisitions, and allocations.
	BatchSize int
	// Timeout bounds each query's wall-clock execution time (0 = none).
	// A timed-out query unwinds through the executor's ordinary error path
	// and returns an error satisfying errors.Is(err, context.DeadlineExceeded).
	Timeout time.Duration
	// Profile enables per-operator runtime profiling for every query:
	// Result.Profile carries an OpProfile tree pairing the optimizer's
	// per-node estimates with actual rows, wall time, attributed I/O, and
	// predicate/cache counters. Profiling is observational — results, row
	// order, and charged cost are byte-identical with it on or off (wall
	// time is never charged). Off by default; EXPLAIN ANALYZE profiles its
	// one statement regardless of this setting.
	Profile bool
	// Transfer enables predicate transfer: before execution, a
	// prepass scans the joined tables smallest-first, building a Bloom
	// filter per join-key equivalence class from each table's survivors
	// (cheap local predicates always applied; cacheable expensive ones when
	// caching is on) and probing the filters built so far, forward then
	// backward across the join graph. Main scans then probe the received
	// filters before decoding, pruning rows that cannot join. Results are
	// identical with it on or off; filter builds and probes are charged into
	// the cost (never free), and the optimizer plans under transfer-adjusted
	// cardinalities. Off by default — every figure reproduction runs without
	// it.
	Transfer bool
	// TopK enables top-k-aware execution: a query with ORDER BY and LIMIT
	// plans a bounded-heap TopK root (n·log k comparisons, only k rows flow
	// upstream) — or, when an ascending index scan on a unique ORDER BY key
	// already delivers the order, an early-terminating Limit that stops
	// pulling after k rows, so the pages and predicate invocations the limit
	// cuts off are never paid. Results are identical with it on or off
	// (equal-key ties break on the full projected row either way); charged
	// cost can only shrink. Off by default — byte-identical planning and
	// execution, with ORDER BY/LIMIT applied in the facade as before.
	TopK bool
	// PlanCacheSize bounds the shared LRU plan cache (0 = the
	// DefaultPlanCacheSize of 64 entries; negative disables plan caching).
	// Cached plans are keyed on normalized SQL, algorithm, the
	// planning-affecting knobs, and the catalog version, so a hit is always
	// the plan that planning would have produced.
	PlanCacheSize int
	// Feedback enables feedback-driven statistics: every query runs with the
	// per-operator profile on, observed per-predicate/per-join selectivities
	// and measured real-work function costs are harvested into the catalog's
	// feedback store at query end, and when any observation's error factor
	// exceeds FeedbackThreshold the batch is promoted — future planning uses
	// the observed selectivities ahead of histogram/default guesses,
	// registered functions' metadata is refreshed from the measured actuals,
	// and the catalog version bump re-optimizes every cached plan. Results,
	// row order, and charged cost of any single query are identical with it
	// on or off (harvesting is observational); only subsequent plans change.
	// Off by default — planning and execution are byte-identical to a
	// feedback-less build.
	Feedback bool
	// FeedbackThreshold is the ×err estimation-error factor above which
	// harvested observations are promoted into planning statistics
	// (0 = DefaultFeedbackThreshold). Always compared against finite,
	// capped error factors — a zero estimate against a nonzero actual
	// reports the cap, never ±Inf.
	FeedbackThreshold float64
	// RobustE is the Robust algorithm's estimate-error interval half-width e:
	// candidate plans are scored over selectivities [sel/e, sel·e] and
	// expensive predicate costs [cost/e, cost·e], and the plan with the best
	// worst case wins (0 = DefaultRobustE). Planning-affecting: part of the
	// plan-cache key.
	RobustE float64
}

// knobs is the per-query execution configuration. Every statement entry
// point (QueryContext, Prepare, PreparedStatement.Exec, Exec) copies the
// DB's current knobs once, under the DB mutex, and runs entirely from the
// copy — a concurrent Set* on the handle can never tear a running query's
// configuration, and one query observes one consistent setting of every
// knob from plan to finish.
type knobs struct {
	caching     bool
	cacheScope  pcache.Scope
	cacheMax    int
	budget      float64
	batchSize   int
	timeout     time.Duration
	profile     bool
	transfer    bool
	topk        bool
	feedback    bool
	fbThreshold float64
	robustE     float64
}

// DB is an open database handle, safe for concurrent use: any number of
// goroutines may run queries at once. Each query executes in its own
// exec.Env — private I/O accounting, UDF invocation counters, and
// predicate-cache scope — so concurrent queries' results and charged costs
// are identical to running each alone. Knob setters (SetCaching, SetBudget,
// …) apply to statements that begin after the call.
type DB struct {
	inner *datagen.DB
	// mu guards k; see knobs.
	mu sync.Mutex
	k  knobs
	// validate is the PPLINT_VALIDATE environment knob, read once at Open
	// so the per-statement hot path never consults the process environment.
	validate bool
	subSeq   atomic.Int64
	// plans is the shared LRU plan cache (nil = disabled).
	plans *planCache
}

// Open creates a database. With Scale > 0 the paper's benchmark schema is
// generated and the costlyN function family registered.
func Open(cfg Config) (*DB, error) {
	var inner *datagen.DB
	var err error
	if cfg.Scale > 0 {
		inner, err = datagen.Build(datagen.Config{
			Scale:     cfg.Scale,
			Tables:    cfg.Tables,
			PoolPages: cfg.PoolPages,
		})
	} else {
		pool := cfg.PoolPages
		if pool == 0 {
			pool = 256
		}
		acct := &storage.Accountant{}
		disk := storage.NewDisk(acct)
		inner = &datagen.DB{
			Disk: disk,
			Pool: storage.NewBufferPool(disk, pool),
			Cat:  catalog.New(),
		}
		err = datagen.RegisterStandardFuncs(inner.Cat)
	}
	if err != nil {
		return nil, err
	}
	planEntries := cfg.PlanCacheSize
	if planEntries == 0 {
		planEntries = DefaultPlanCacheSize
	}
	return &DB{
		inner: inner,
		k: knobs{
			caching: cfg.Caching, cacheScope: pcacheScope(cfg),
			cacheMax: cfg.CacheMaxEntries, budget: cfg.Budget,
			batchSize: cfg.BatchSize,
			timeout:   cfg.Timeout, profile: cfg.Profile,
			transfer: cfg.Transfer, topk: cfg.TopK,
			feedback:    cfg.Feedback,
			fbThreshold: resolveThreshold(cfg.FeedbackThreshold),
			robustE:     resolveRobustE(cfg.RobustE),
		},
		validate: os.Getenv("PPLINT_VALIDATE") == "1",
		plans:    newPlanCache(planEntries),
	}, nil
}

// snapshot copies the current knobs under the DB mutex; the statement runs
// from the copy.
func (d *DB) snapshot() knobs {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k
}

// pcacheScope maps the config to a predicate-cache scope.
func pcacheScope(cfg Config) pcache.Scope {
	if cfg.PerFunctionCache {
		return pcache.ByFunction
	}
	return pcache.ByPredicate
}

// Catalog exposes the underlying catalog (tables, statistics, functions).
func (d *DB) Catalog() *catalog.Catalog { return d.inner.Cat }

// SetCaching toggles predicate caching for subsequent queries.
func (d *DB) SetCaching(on bool) {
	d.mu.Lock()
	d.k.caching = on
	d.mu.Unlock()
}

// SetBudget changes the charged-cost abort threshold (0 = unlimited).
func (d *DB) SetBudget(b float64) {
	d.mu.Lock()
	d.k.budget = b
	d.mu.Unlock()
}

// SetCacheLimit bounds each predicate's cache table for subsequent queries
// (0 = unbounded).
func (d *DB) SetCacheLimit(n int) {
	d.mu.Lock()
	d.k.cacheMax = n
	d.mu.Unlock()
}

// DefaultBatchSize is the batch width used when Config.BatchSize is 0.
const DefaultBatchSize = exec.DefaultBatchSize

// SetBatchSize changes the executor's batch width for subsequent queries
// (0 = tuned default, otherwise that many rows per batch). Results and
// charged cost are identical at every width.
func (d *DB) SetBatchSize(n int) {
	d.mu.Lock()
	d.k.batchSize = n
	d.mu.Unlock()
}

// BatchSize reports the configured batch width (0 = tuned default).
func (d *DB) BatchSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k.batchSize
}

// SetTimeout bounds each subsequent query's wall-clock time (0 = none).
func (d *DB) SetTimeout(t time.Duration) {
	d.mu.Lock()
	d.k.timeout = t
	d.mu.Unlock()
}

// SetProfile toggles per-operator runtime profiling for subsequent queries
// (see Config.Profile). Profiling never changes results or charged cost.
func (d *DB) SetProfile(on bool) {
	d.mu.Lock()
	d.k.profile = on
	d.mu.Unlock()
}

// Profiling reports whether per-operator profiling is currently enabled.
func (d *DB) Profiling() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k.profile
}

// SetTransfer toggles predicate transfer for subsequent queries (see
// Config.Transfer). Transfer never changes results — only which rows reach
// the join operators and what the query charges for getting them there.
func (d *DB) SetTransfer(on bool) {
	d.mu.Lock()
	d.k.transfer = on
	d.mu.Unlock()
}

// Transfer reports whether predicate transfer is currently enabled.
func (d *DB) Transfer() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k.transfer
}

// SetTopK toggles top-k-aware execution for subsequent queries (see
// Config.TopK). Top-k planning never changes results — only how much of the
// pre-LIMIT input is materialized, sorted, and paid for.
func (d *DB) SetTopK(on bool) {
	d.mu.Lock()
	d.k.topk = on
	d.mu.Unlock()
}

// TopK reports whether top-k-aware execution is currently enabled.
func (d *DB) TopK() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k.topk
}

// DefaultFeedbackThreshold is the ×err factor above which harvested
// feedback observations are promoted when Config.FeedbackThreshold is 0:
// an estimate off by more than 2× either way triggers re-optimization.
const DefaultFeedbackThreshold = 2.0

// DefaultRobustE is the Robust algorithm's error-interval half-width when
// Config.RobustE is 0.
const DefaultRobustE = optimizer.DefaultRobustE

// resolveThreshold normalizes a Config.FeedbackThreshold value.
func resolveThreshold(t float64) float64 {
	if t <= 0 {
		return DefaultFeedbackThreshold
	}
	return t
}

// resolveRobustE normalizes a Config.RobustE value.
func resolveRobustE(e float64) float64 {
	if e <= 1 {
		return DefaultRobustE
	}
	return e
}

// SetFeedback toggles feedback-driven statistics for subsequent queries
// (see Config.Feedback). Each query's own results and charged cost are
// unaffected; the plans of later queries are what change.
func (d *DB) SetFeedback(on bool) {
	d.mu.Lock()
	d.k.feedback = on
	d.mu.Unlock()
}

// Feedback reports whether feedback-driven statistics are currently enabled.
func (d *DB) Feedback() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.k.feedback
}

// SetFeedbackThreshold changes the promotion threshold for subsequent
// queries (≤ 0 = DefaultFeedbackThreshold); see Config.FeedbackThreshold.
func (d *DB) SetFeedbackThreshold(t float64) {
	d.mu.Lock()
	d.k.fbThreshold = resolveThreshold(t)
	d.mu.Unlock()
}

// SetRobustE changes the Robust algorithm's error-interval half-width for
// subsequent queries (≤ 1 = DefaultRobustE); see Config.RobustE.
func (d *DB) SetRobustE(e float64) {
	d.mu.Lock()
	d.k.robustE = resolveRobustE(e)
	d.mu.Unlock()
}

// FeedbackStats snapshots the catalog feedback store's counters: harvested
// observations, pending and applied entries, promotions, and the largest
// pending error factor (always finite).
func (d *DB) FeedbackStats() catalog.FeedbackStats {
	return d.inner.Cat.Feedback().Stats()
}

// FaultConfig configures the deterministic storage fault injector; see
// SetFaults.
type FaultConfig = storage.FaultConfig

// ErrInjectedFault is the sentinel every injected storage fault wraps;
// match it with errors.Is.
var ErrInjectedFault = storage.ErrInjectedFault

// ErrCanceled is the sentinel the executor wraps around a context
// cancellation or deadline; the context cause (context.Canceled or
// context.DeadlineExceeded) is also reachable through errors.Is.
var ErrCanceled = exec.ErrCanceled

// SetFaults installs a deterministic fault injector beneath the buffer pool
// for subsequent queries: page reads and writes fail according to cfg
// (the Nth I/O, a seeded probability per I/O, or both). Injected failures
// surface as errors wrapping ErrInjectedFault; a failed I/O is never charged
// to the cost accountant. Passing nil removes the injector.
func (d *DB) SetFaults(cfg *FaultConfig) {
	if cfg == nil {
		d.inner.Disk.SetFaults(nil)
		return
	}
	d.inner.Disk.SetFaults(storage.NewFaultInjector(*cfg))
}

// FaultCounts reports the installed injector's counters — page reads and
// writes observed, and faults injected — all zero when no injector is set.
func (d *DB) FaultCounts() (reads, writes, injected int64) {
	if fi := d.inner.Disk.Faults(); fi != nil {
		return fi.Counts()
	}
	return 0, 0, 0
}

// PinnedFrames reports how many buffer-pool frames are currently pinned.
// Between queries it must be zero — any other value is a page leak; the
// test harness asserts this after every query, including aborted ones.
func (d *DB) PinnedFrames() int { return d.inner.Pool.PinnedFrames() }

// EvictPool drops every unpinned page from the buffer pool, returning it
// to a cold state. Benchmarks call it before a measured run so the run's
// physical I/O — and therefore its charged cost — never depends on what
// the previous query happened to leave cached.
func (d *DB) EvictPool() error { return d.inner.Pool.EvictUnpinned() }

// ColumnSpec declares a column of a user-created table.
type ColumnSpec struct {
	// Name of the column.
	Name string
	// String marks a string column of width Len; otherwise the column is a
	// 64-bit integer.
	String bool
	// Len is the fixed width of string columns.
	Len int
	// Indexed builds a B-tree over the column (integers only).
	Indexed bool
}

// CreateTable creates an empty user table.
func (d *DB) CreateTable(name string, cols []ColumnSpec) error {
	ccols := make([]catalog.Column, len(cols))
	for i, c := range cols {
		if c.String {
			if c.Len <= 0 {
				return fmt.Errorf("predplace: string column %s needs Len", c.Name)
			}
			ccols[i] = catalog.Column{Name: c.Name, Type: expr.TString, FixedLen: c.Len}
		} else {
			ccols[i] = catalog.Column{Name: c.Name, Type: expr.TInt, Distinct: 1}
		}
	}
	codec, err := catalog.NewRowCodec(ccols)
	if err != nil {
		return err
	}
	tab := &catalog.Table{
		Name:       name,
		Columns:    ccols,
		Heap:       storage.NewHeapFile(d.inner.Pool),
		Indexes:    map[string]*btree.Tree{},
		Codec:      codec,
		TupleBytes: codec.Width(),
	}
	for i, c := range cols {
		if c.Indexed {
			if c.String {
				return fmt.Errorf("predplace: string columns cannot be indexed")
			}
			tab.Indexes[ccols[i].Name] = btree.New(d.inner.Disk.Accountant())
		}
	}
	return d.inner.Cat.AddTable(tab)
}

// Insert appends one row. Values must be int64/int or string per column.
func (d *DB) Insert(table string, values ...interface{}) error {
	tab, err := d.inner.Cat.Table(table)
	if err != nil {
		return err
	}
	if len(values) != len(tab.Columns) {
		return fmt.Errorf("predplace: %s has %d columns, got %d values", table, len(tab.Columns), len(values))
	}
	row := make(expr.Row, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case int:
			row[i] = expr.I(int64(x))
		case int64:
			row[i] = expr.I(x)
		case string:
			row[i] = expr.S(x)
		case nil:
			row[i] = expr.Null
		default:
			return fmt.Errorf("predplace: unsupported value type %T", v)
		}
	}
	rec, err := tab.Codec.Encode(row)
	if err != nil {
		return err
	}
	tid, err := tab.Heap.Insert(rec)
	if err != nil {
		return err
	}
	for i := range tab.Columns {
		if tree, ok := tab.Indexes[tab.Columns[i].Name]; ok && row[i].Kind == expr.TInt {
			tree.Insert(row[i].I, tid)
		}
	}
	tab.Card++
	d.inner.Cat.BumpVersion()
	return nil
}

// Analyze recomputes a table's statistics from its data and forgets any
// loading I/O, preparing it for measured queries.
func (d *DB) Analyze(table string) error {
	if err := datagen.ComputeStats(d.inner, table); err != nil {
		return err
	}
	d.inner.Disk.Accountant().Reset()
	d.inner.Cat.BumpVersion()
	return nil
}

// RegisterFunc registers a user-defined boolean predicate function with its
// cost metadata (per-call cost in random-I/O units and selectivity).
func (d *DB) RegisterFunc(name string, arity int, costPerCall, selectivity float64,
	eval func(args []Value) Value) error {
	return d.inner.Cat.RegisterFunc(&expr.FuncDef{
		Name: name, Arity: arity, Cost: costPerCall, Selectivity: selectivity,
		Cacheable: true, Eval: eval,
	})
}

// Value is a runtime datum; see the expr helpers re-exported below.
type Value = expr.Value

// Int wraps an integer as a Value.
func Int(v int64) Value { return expr.I(v) }

// Str wraps a string as a Value.
func Str(s string) Value { return expr.S(s) }

// Bool wraps a boolean as a Value.
func Bool(b bool) Value { return expr.B(b) }

// NullValue is the SQL NULL.
var NullValue = expr.Null

// Stats reports the resources one query consumed; Charged() is the paper's
// measurement (page I/Os + invocations × per-call cost).
type Stats = exec.Stats

// PlanInfo carries the optimizer's diagnostics.
type PlanInfo = optimizer.Info

// OpProfile is one operator's runtime profile; see Result.Profile. The tree
// mirrors the plan and has a stable JSON encoding (ppsql -profile emits it).
type OpProfile = exec.OpProfile

// Result is the outcome of Query.
type Result struct {
	// Cols names the output columns.
	Cols []string
	// Rows holds the output (nil for EXPLAIN or DNF). With top-k execution
	// off (the default), LIMIT truncates this slice only: Stats.Rows keeps
	// the executor's pre-LIMIT row count (the measurement), so len(Rows) ≤
	// Stats.Rows under a LIMIT. With Config.TopK on and a TopK/Limit plan
	// root, the executor itself stops at the limit and Stats.Rows is the
	// post-limit count — see Stats.Rows.
	Rows [][]Value
	// Plan is the chosen plan rendered as a tree.
	Plan string
	// EstCost is the optimizer's estimate for the chosen plan.
	EstCost float64
	// Stats reports execution resource usage (zero for EXPLAIN). Stats.Rows
	// counts rows the executor produced: the full pre-LIMIT cardinality
	// with top-k execution off, the ≤ LIMIT post-limit count when a
	// TopK/Limit plan root terminated early.
	Stats Stats
	// Info reports planning diagnostics.
	Info PlanInfo
	// Profile is the per-operator runtime profile (non-nil when profiling
	// was on — Config.Profile/SetProfile — or the statement was EXPLAIN
	// ANALYZE).
	Profile *OpProfile
	// DNF marks queries aborted by the charged-cost budget.
	DNF bool
	// Explained marks EXPLAIN statements (not executed).
	Explained bool
}

// Query parses, optimizes with the given algorithm, and (unless the
// statement has an EXPLAIN prefix) executes the SQL text.
func (d *DB) Query(sql string, algo Algorithm) (*Result, error) {
	return d.QueryContext(context.Background(), sql, algo)
}

// QueryContext is Query with a context: cancellation or deadline expiry
// aborts the running query promptly — at every batch width the executor
// observes the context on its budget-check cadence and unwinds through the
// ordinary error path (iterators close, pages unpin). The returned error
// wraps the context cause, so errors.Is(err, context.Canceled) /
// context.DeadlineExceeded hold. A configured Timeout applies on top of
// ctx.
func (d *DB) QueryContext(ctx context.Context, sql string, algo Algorithm) (*Result, error) {
	k := d.snapshot()
	p, err := d.prepare(sql, algo, k)
	if err != nil {
		return nil, err
	}
	return d.execPrepared(ctx, p, k)
}

// PreparedStatement is a statement that has been parsed, bound, and
// optimized once, ready to execute any number of times without repeating
// that work. The plan tree is immutable; every execution builds its own
// execution environment, so one PreparedStatement may be executed from many
// goroutines concurrently. The plan is fixed at Prepare time: schema or
// statistics changes after Prepare do not re-plan it (Query/QueryContext,
// whose cache is catalog-versioned, pick up such changes automatically).
type PreparedStatement struct {
	db    *DB
	sql   string
	algo  Algorithm
	root  plan.Node
	bound *sqlparse.Bound
	info  *optimizer.Info
}

// Prepare parses, binds, and optimizes sql under the given algorithm,
// consulting the shared plan cache. The planning-affecting knobs (caching,
// transfer, top-k) are snapshotted at this call.
func (d *DB) Prepare(sql string, algo Algorithm) (*PreparedStatement, error) {
	return d.prepare(sql, algo, d.snapshot())
}

// SQL returns the statement's original text.
func (p *PreparedStatement) SQL() string { return p.sql }

// Plan renders the prepared plan tree.
func (p *PreparedStatement) Plan() string { return plan.Render(p.root) }

// Exec executes the prepared statement; execution knobs (budget,
// batching, timeout, profiling) are snapshotted per call.
func (p *PreparedStatement) Exec() (*Result, error) {
	return p.ExecContext(context.Background())
}

// ExecContext is Exec with a context; see DB.QueryContext for the
// cancellation contract.
func (p *PreparedStatement) ExecContext(ctx context.Context) (*Result, error) {
	return p.db.execPrepared(ctx, p, p.db.snapshot())
}

// prepare resolves sql to a prepared statement: a plan-cache hit reuses the
// cached plan outright; a miss runs parse/bind/optimize and publishes the
// result for the next caller.
func (d *DB) prepare(sql string, algo Algorithm, k knobs) (*PreparedStatement, error) {
	key := planKey{
		sql: normalizeSQL(sql), algo: algo,
		caching: k.caching, transfer: k.transfer, topk: k.topk,
		feedback: k.feedback, robustE: k.robustE,
		catVer: d.inner.Cat.Version(),
	}
	if d.plans != nil {
		if e, ok := d.plans.get(key); ok {
			return &PreparedStatement{db: d, sql: sql, algo: algo,
				root: e.root, bound: e.bound, info: e.info}, nil
		}
	}
	root, bound, info, err := d.plan(sql, algo, k)
	if err != nil {
		return nil, err
	}
	if d.plans != nil {
		d.plans.put(&planEntry{key: key, root: root, bound: bound, info: info})
	}
	return &PreparedStatement{db: d, sql: sql, algo: algo,
		root: root, bound: bound, info: info}, nil
}

// execPrepared executes a prepared statement under the knob snapshot k.
func (d *DB) execPrepared(ctx context.Context, p *PreparedStatement, k knobs) (*Result, error) {
	root, bound, info := p.root, p.bound, p.info
	// EstCost comes from the planner's Info, not the root node: with
	// transfer on it includes the prepass's estimated cost (identical to
	// root.Cost() otherwise).
	res := &Result{
		Plan:    plan.Render(root) + robustSummary(info),
		EstCost: info.EstCost,
		Info:    *info,
	}
	if bound.Explain && !bound.Analyze {
		res.Explained = true
		return res, nil
	}
	ctx, cancel := execCtx(ctx, k.timeout)
	defer cancel()
	env := d.newEnv(ctx, k)
	// EXPLAIN ANALYZE always profiles its statement: the profile is the
	// point of the command, and every plan node then has an actual row
	// count (probe-driven inner chains and never-reached subtrees
	// included), so "actual=n/a" cannot appear. Feedback harvesting needs
	// the same per-operator actuals, so it forces profiling too — but only
	// an explicit request surfaces the profile on the Result below.
	env.Profile = k.profile || bound.Explain || k.feedback
	out, err := exec.Run(env, root)
	if err != nil {
		return nil, err
	}
	res.Stats = out.Stats
	res.DNF = out.DNF
	if k.profile || bound.Explain {
		res.Profile = out.Profile
	}
	// Harvest observed selectivities and measured function costs into the
	// catalog's feedback store, then promote the batch when any observation
	// is off by more than the threshold. A DNF query stopped mid-stream, so
	// its per-operator ratios are truncation artifacts, not selectivities.
	if k.feedback && out.Profile != nil && !out.DNF {
		fb := d.inner.Cat.Feedback()
		harvestFeedback(fb, root, out.Profile)
		if fb.MaxPendingErr() > k.fbThreshold {
			d.inner.Cat.ApplyFeedback()
		}
	}
	if bound.Explain { // EXPLAIN ANALYZE: annotated plan, no result rows
		res.Explained = true
		res.Plan = analyzedPlan(root, out) + robustSummary(info)
		return res, nil
	}
	res.Cols, res.Rows = project(root, bound, out)
	if err := finishResult(bound, res, planHasTopK(root)); err != nil {
		return nil, err
	}
	return res, nil
}

// planHasTopK reports whether the plan root already applies the query's
// ORDER BY and LIMIT (top-k planning wrapped it), so finishResult must not
// re-sort or re-truncate.
func planHasTopK(root plan.Node) bool {
	switch root.(type) {
	case *plan.TopK, *plan.Limit:
		return true
	}
	return false
}

// analyzedPlan renders the EXPLAIN ANALYZE tree: each node carries the
// optimizer's row estimate, the measured row count, and the estimation-error
// factor; a summary line totals the profile underneath.
func analyzedPlan(root plan.Node, out *exec.Result) string {
	topkProf := map[plan.Node]*exec.OpProfile{}
	if out.Profile != nil {
		zipTopKProfile(root, out.Profile, topkProf)
	}
	rendered := plan.RenderWith(root, func(n plan.Node) string {
		rows, ok := out.NodeRows[n]
		if !ok {
			return " actual=n/a"
		}
		s := fmt.Sprintf(" est=%.0f actual=%d (%s)", n.Card(), rows, errFactorString(n.Card(), rows))
		if p := topkProf[n]; p != nil {
			if p.HeapPushed > 0 || p.HeapEvicted > 0 {
				s += fmt.Sprintf(" heap(pushed=%d evicted=%d)", p.HeapPushed, p.HeapEvicted)
			}
			if p.ShortCircuit > 0 {
				s += " short-circuit"
			}
		}
		return s
	})
	if out.Profile != nil {
		rendered += profileSummary(out.Profile)
	}
	if t := out.Stats.Transfer; t != nil {
		rendered += transferSummary(t)
	}
	return rendered
}

// zipTopKProfile pairs the plan's TopK/Limit nodes with their OpProfile
// entries by walking the two trees in lockstep (the profile tree mirrors the
// plan node for node), so EXPLAIN ANALYZE can annotate heap traffic and
// short-circuits on the right lines.
func zipTopKProfile(n plan.Node, p *exec.OpProfile, m map[plan.Node]*exec.OpProfile) {
	if p == nil {
		return
	}
	switch n.(type) {
	case *plan.TopK, *plan.Limit:
		m[n] = p
	}
	children := n.Children()
	if len(children) != len(p.Children) {
		return
	}
	for i, c := range children {
		zipTopKProfile(c, p.Children[i], m)
	}
}

// transferSummary is the predicate-transfer line under an EXPLAIN ANALYZE
// tree: prepass filters and their measured effect. FP rates print only when
// measured (profiling tracks exact key sets; -1 means unmeasured).
func transferSummary(t *exec.TransferStats) string {
	s := fmt.Sprintf("transfer: classes=%d filters=%d built=%d probes=%d pruned=%d charged=%.1f",
		t.Classes, t.FiltersBuilt, t.BuildRows, t.Probes, t.Pruned, t.PrepassCharged+t.ProbeCharge)
	if t.FPActual >= 0 {
		s += fmt.Sprintf(" fp=%.4f (est %.4f)", t.FPActual, t.FPEst)
	}
	return s + "\n"
}

// errFactorString renders the symmetric estimation-error factor ×max(a/e, e/a).
func errFactorString(est float64, act int64) string {
	a := float64(act)
	if est <= 0 && a <= 0 {
		return "×1.00"
	}
	if est <= 0 || a <= 0 {
		return "×inf"
	}
	f := a / est
	if f < 1 {
		f = 1 / f
	}
	return maxErrString(f)
}

// profileSummary is the per-query summary line under an EXPLAIN ANALYZE
// tree: inclusive wall time and I/O from the root window, predicate totals,
// and the worst cardinality estimate in the tree.
func profileSummary(p *OpProfile) string {
	evals, inv, hits, misses := p.Totals()
	maxErr, at := p.MaxErr()
	s := fmt.Sprintf("total: wall=%.1fms io=%d predEvals=%d invocations=%d",
		float64(p.WallNs)/1e6, p.IO.Total(), evals, inv)
	if hits != 0 || misses != 0 {
		s += fmt.Sprintf(" cache=%d/%d", hits, hits+misses)
	}
	return s + fmt.Sprintf(" maxErr=%s @ %s\n", maxErrString(maxErr), at)
}

// maxErrString formats an error factor, printing anything at or beyond the
// profiler's cap as ×inf.
func maxErrString(f float64) string {
	if f >= exec.ErrFactorCap {
		return "×inf"
	}
	return fmt.Sprintf("×%.2f", f)
}

// finishResult applies the post-plan result shaping: COUNT(*), ORDER BY,
// and LIMIT. These operate on the result set (the optimizer's plan space is
// the paper's — conjunctive filtering and joins); ORDER BY on large results
// is an in-memory sort. An ORDER BY column that is not among the projected
// output columns is an error: silently returning unsorted rows — or sorting
// by a column position taken from the un-projected plan row layout — is a
// wrong answer, not a degraded one. With topkPlanned set, the plan root
// already emitted the ORDER BY's first LIMIT rows in order (and top-k
// planning only engages when the ORDER BY column is projected), so the
// facade passes the rows through untouched.
func finishResult(bound *sqlparse.Bound, res *Result, topkPlanned bool) error {
	if bound.CountStar {
		res.Cols = []string{"count"}
		res.Rows = [][]Value{{Int(int64(res.Stats.Rows))}}
		res.Stats.Rows = 1 // one aggregate row is the result
		return nil
	}
	if topkPlanned {
		return nil
	}
	if bound.OrderBy != nil {
		idx := -1
		for i, c := range res.Cols {
			if c == bound.OrderBy.String() {
				idx = i
			}
		}
		if idx < 0 {
			return fmt.Errorf("predplace: ORDER BY column %s is not in the select list", bound.OrderBy)
		}
		// The full-row tie-break makes the order total on distinguishable
		// rows, so an unstable sort returns exactly what a stable one would:
		// rows it may swap compare equal in every column.
		slices.SortFunc(res.Rows, func(ra, rb []Value) int {
			if c := ra[idx].Compare(rb[idx]); c != 0 {
				if bound.Desc {
					return -c
				}
				return c
			}
			// Deterministic tie-break: equal keys order by the full projected
			// row, ascending regardless of Desc. The TopK operator uses the
			// same comparator, so equal-key rows order the same way whether
			// the facade or the executor sorts them.
			for i := range ra {
				if c := ra[i].Compare(rb[i]); c != 0 {
					return c
				}
			}
			return 0
		})
	}
	if bound.Limit >= 0 && int64(len(res.Rows)) > bound.Limit {
		res.Rows = res.Rows[:bound.Limit]
	}
	return nil
}

// Explain returns the plan chosen by the given algorithm without executing.
func (d *DB) Explain(sql string, algo Algorithm) (string, error) {
	p, err := d.prepare(sql, algo, d.snapshot())
	if err != nil {
		return "", err
	}
	return plan.Render(p.root) + robustSummary(p.info), nil
}

// robustSummary is the EXPLAIN line describing the Robust algorithm's
// error-interval scoring: the interval the candidates were scored over, the
// chosen plan's worst-case cost across it, and how many distinct plan shapes
// competed. Empty for every other algorithm — their EXPLAIN output stays
// byte-identical.
func robustSummary(info *optimizer.Info) string {
	if info.Algorithm != optimizer.Robust || info.RobustE <= 0 {
		return ""
	}
	return fmt.Sprintf("robust interval=[sel/%g, sel×%g] worst-case=%.0f candidates=%d\n",
		info.RobustE, info.RobustE, info.RobustWorst, info.RobustCandidates)
}

// execCtx layers a per-query timeout onto ctx; the returned cancel function
// must be called when the query finishes (it is a release, not an abort,
// once the query is done).
func execCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// newEnv builds a fresh execution environment bound to ctx, configured
// entirely from the knob snapshot k.
func (d *DB) newEnv(ctx context.Context, k knobs) *exec.Env {
	return &exec.Env{
		Ctx:       ctx,
		Cat:       d.inner.Cat,
		Pool:      d.inner.Pool,
		Cache:     pcache.NewManagerScoped(k.caching, k.cacheMax, k.cacheScope),
		Budget:    k.budget,
		BatchSize: k.batchSize,
		Validate:  d.validate,
		Transfer:  k.transfer,
	}
}

func (d *DB) plan(sql string, algo Algorithm, k knobs) (plan.Node, *sqlparse.Bound, *optimizer.Info, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	binder := &sqlparse.Binder{Cat: d.inner.Cat, CompileSubquery: d.compileSubquery}
	bound, err := binder.Bind(stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := optimizer.New(d.inner.Cat, optimizer.Options{
		Algorithm: algo, Caching: k.caching, Transfer: k.transfer,
		TopK:     topkSpec(bound, k.topk),
		Feedback: k.feedback, RobustE: k.robustE,
	})
	root, info, err := opt.Plan(bound.Query)
	if err != nil {
		return nil, nil, nil, err
	}
	// With PPLINT_VALIDATE=1 (snapshotted at Open) every planned tree —
	// whether it is about to be executed, explained, or compared — is held
	// to plan.Validate's invariants before leaving the planner.
	if d.validate {
		if err := plan.Validate(root); err != nil {
			return nil, nil, nil, fmt.Errorf("predplace: %s produced an invalid plan: %w", algo, err)
		}
	}
	return root, bound, info, nil
}

// topkSpec lifts a bound ORDER BY + LIMIT into the optimizer's top-k
// specification. Nil — leaving ORDER BY/LIMIT to the facade exactly as with
// TopK off — when the knob is off, the query has no ORDER BY or no positive
// LIMIT, it is a COUNT(*) (the aggregate consumes every row; nothing to
// bound), or the ORDER BY column is not among the projected columns (the
// facade rejects that query, and the rejection must survive the knob).
func topkSpec(bound *sqlparse.Bound, topk bool) *optimizer.TopKSpec {
	if !topk || bound.CountStar || bound.OrderBy == nil || bound.Limit < 1 {
		return nil
	}
	spec := &optimizer.TopKSpec{Key: *bound.OrderBy, Desc: bound.Desc, K: bound.Limit}
	if !bound.Star && len(bound.Projection) > 0 {
		found := false
		for _, ref := range bound.Projection {
			if ref == *bound.OrderBy {
				found = true
			}
		}
		if !found {
			return nil
		}
		// Tie-break on the projected columns in projection order: the heap's
		// comparator then matches the facade sort's, and rows it cannot
		// distinguish are identical after projection.
		spec.Tie = bound.Projection
	}
	return spec
}

// project applies the SELECT list to executor output.
func project(root plan.Node, bound *sqlparse.Bound, out *exec.Result) ([]string, [][]Value) {
	if bound.Star || len(bound.Projection) == 0 {
		rows := make([][]Value, len(out.Rows))
		for i, r := range out.Rows {
			rows[i] = r
		}
		return out.Cols, rows
	}
	idx := make([]int, len(bound.Projection))
	names := make([]string, len(bound.Projection))
	for i, ref := range bound.Projection {
		idx[i] = plan.ColIndex(root, ref)
		names[i] = ref.String()
	}
	rows := make([][]Value, len(out.Rows))
	for i, r := range out.Rows {
		pr := make([]Value, len(idx))
		for k, j := range idx {
			if j >= 0 {
				pr[k] = r[j]
			}
		}
		rows[i] = pr
	}
	return names, rows
}

// compileSubquery lowers an IN-subquery into an expensive predicate whose
// evaluation runs the (single-table) subquery through the executor with the
// correlated outer columns bound — Montage's treatment of subqueries as
// expensive selections, with the whole predicate's tri-state result cached
// on the binding (§5.1).
func (d *DB) compileSubquery(sub *sqlparse.SelectStmt, not bool, args []query.ColRef) (*expr.FuncDef, error) {
	if len(sub.Tables) != 1 {
		return nil, fmt.Errorf("predplace: IN-subqueries over joins are unsupported")
	}
	if sub.Star || len(sub.Columns) != 1 {
		return nil, fmt.Errorf("predplace: IN-subquery must select exactly one column")
	}
	subTable := sub.Tables[0]
	tab, err := d.inner.Cat.Table(subTable)
	if err != nil {
		return nil, err
	}
	outIdx := tab.ColIndex(sub.Columns[0].Col)
	if outIdx < 0 {
		return nil, fmt.Errorf("predplace: no column %s in %s", sub.Columns[0].Col, subTable)
	}

	// Split subquery WHERE into local conjuncts and correlated equalities.
	var locals []subLocal
	var corrs []subCorr
	argPos := map[query.ColRef]int{}
	for i, a := range args {
		argPos[a] = i
	}
	for _, w := range sub.Where {
		cmp, ok := w.(*sqlparse.CmpPred)
		if !ok {
			return nil, fmt.Errorf("predplace: IN-subqueries support only comparison predicates")
		}
		op, err := sqlCmpOp(cmp.Op)
		if err != nil {
			return nil, err
		}
		// Orient the comparison so the subquery column is on the left.
		left, right := cmp.Left, cmp.Right
		if left.IsCol && left.Col.Table != subTable && left.Col.Table != "" {
			left, right, op = right, left, op.Flip()
		}
		if err := classifyCorr(left, right, op, tab, argPos, &corrs, &locals); err != nil {
			return nil, err
		}
	}

	name := fmt.Sprintf("in_%s_%d", subTable, d.subSeq.Add(1))
	f := &expr.FuncDef{
		Name:        name,
		Arity:       len(args),
		Cost:        float64(tab.Pages()), // optimizer estimate: one scan per call
		Selectivity: 0.5,
		Cacheable:   true,
		RealWork:    true,
	}
	f.EvalIO = func(tr *storage.IOTracker, vals []expr.Value) (expr.Value, error) {
		if vals[0].IsNull() {
			return expr.Null, nil
		}
		// The scan reads through the shared buffer pool; the executor passes
		// the running query's I/O tracker, so the subquery's page traffic is
		// charged to that query alone. A scan or decode failure propagates
		// instead of folding into a truth value — under injected faults a
		// silently-wrong answer would be worse than the fault itself.
		it := tab.Heap.WithTracker(tr).Scan()
		defer it.Close()
		for {
			rec, _, ok, err := it.Next()
			if err != nil {
				return expr.Null, fmt.Errorf("predplace: subquery scan of %s: %w", subTable, err)
			}
			if !ok {
				break
			}
			row, err := tab.Codec.Decode(rec)
			if err != nil {
				return expr.Null, fmt.Errorf("predplace: subquery decode of %s: %w", subTable, err)
			}
			match := true
			for _, lc := range locals {
				if b, known := lc.op.Apply(row[lc.colIdx], lc.value).Bool(); !known || !b {
					match = false
					break
				}
			}
			if match {
				for _, cc := range corrs {
					if b, known := cc.op.Apply(row[cc.colIdx], vals[cc.argIdx]).Bool(); !known || !b {
						match = false
						break
					}
				}
			}
			if match && row[outIdx].Equal(vals[0]) {
				return expr.B(!not), nil
			}
		}
		return expr.B(not), nil
	}
	if err := d.inner.Cat.RegisterFunc(f); err != nil {
		return nil, err
	}
	return f, nil
}

// subLocal is a subquery-local comparison against a constant.
type subLocal struct {
	colIdx int
	op     expr.CmpOp
	value  expr.Value
}

// subCorr compares a subquery column against a correlated outer binding.
type subCorr struct {
	colIdx int
	op     expr.CmpOp
	argIdx int // index into the predicate's argument list
}

func classifyCorr(colSide, otherSide sqlparse.Operand, op expr.CmpOp,
	tab *catalog.Table, argPos map[query.ColRef]int,
	corrs *[]subCorr, locals *[]subLocal) error {
	if !colSide.IsCol {
		return fmt.Errorf("predplace: IN-subquery comparison needs a subquery column")
	}
	ci := tab.ColIndex(colSide.Col.Col)
	if ci < 0 {
		return fmt.Errorf("predplace: no column %s in %s", colSide.Col.Col, tab.Name)
	}
	if otherSide.IsCol {
		ref := query.ColRef{Table: otherSide.Col.Table, Col: otherSide.Col.Col}
		ai, ok := argPos[ref]
		if !ok {
			return fmt.Errorf("predplace: unresolved correlated reference %s", ref)
		}
		*corrs = append(*corrs, subCorr{ci, op, ai})
		return nil
	}
	*locals = append(*locals, subLocal{ci, op, sqlOperandValue(otherSide)})
	return nil
}

func sqlCmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.OpEQ, nil
	case "<>":
		return expr.OpNE, nil
	case "<":
		return expr.OpLT, nil
	case "<=":
		return expr.OpLE, nil
	case ">":
		return expr.OpGT, nil
	case ">=":
		return expr.OpGE, nil
	}
	return 0, fmt.Errorf("predplace: bad operator %q", s)
}

func sqlOperandValue(o sqlparse.Operand) expr.Value {
	switch {
	case o.IsString:
		return expr.S(o.Str)
	case o.IsNull:
		return expr.Null
	case o.IsBool:
		return expr.B(o.Bool)
	default:
		return expr.I(o.Int)
	}
}

// CompareAll runs the SQL text under every algorithm in algos (defaults to
// all) and returns one Result per algorithm in order — the harness the paper
// used to debug its optimizer ("running the same query under the various
// heuristics and comparing the estimated costs and running times").
func (d *DB) CompareAll(sql string, algos ...Algorithm) ([]*Result, error) {
	if len(algos) == 0 {
		algos = Algorithms()
	}
	out := make([]*Result, 0, len(algos))
	for _, a := range algos {
		r, err := d.Query(sql, a)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", a, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatComparison renders CompareAll results as an aligned table with costs
// normalized to the best algorithm — the textual analog of the paper's
// relative-time bar charts.
func FormatComparison(algos []Algorithm, results []*Result) string {
	best := 0.0
	for _, r := range results {
		c := r.Stats.Charged()
		if !r.DNF && (best == 0 || c < best) {
			best = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %14s %10s %14s %8s\n", "algorithm", "charged-cost", "relative", "est-cost", "rows")
	for i, r := range results {
		rel := "DNF"
		charged := r.Stats.Charged()
		if !r.DNF && best > 0 {
			rel = fmt.Sprintf("%.2fx", charged/best)
		}
		fmt.Fprintf(&b, "%-18s %14.0f %10s %14.0f %8d\n",
			algos[i].String(), charged, rel, r.EstCost, r.Stats.Rows)
	}
	return b.String()
}

// Exec runs a data-modification statement (currently DELETE FROM … WHERE …)
// and returns the number of affected rows. Selections are rank-ordered
// before evaluation, so expensive predicates benefit from the same ordering
// discipline as queries; statistics become stale after large deletes —
// re-run Analyze.
func (d *DB) Exec(sql string) (int, error) {
	stmt, err := sqlparse.ParseAny(sql)
	if err != nil {
		return 0, err
	}
	del, ok := stmt.(*sqlparse.DeleteStmt)
	if !ok {
		return 0, fmt.Errorf("predplace: Exec handles DELETE; use Query for SELECT")
	}
	binder := &sqlparse.Binder{Cat: d.inner.Cat, CompileSubquery: d.compileSubquery}
	q, err := binder.BindDelete(del)
	if err != nil {
		return 0, err
	}
	tab, err := d.inner.Cat.Table(del.Table)
	if err != nil {
		return 0, err
	}
	// Rank-order the predicates (cheap first, then ascending rank).
	preds := append([]*query.Predicate(nil), q.Preds...)
	sortPredsByRank(preds)

	k := d.snapshot()
	ctx, cancel := execCtx(context.Background(), k.timeout)
	defer cancel()
	env := d.newEnv(ctx, k)
	tids, err := exec.MatchingTIDs(env, del.Table, preds)
	if err != nil {
		return 0, err
	}
	for _, tid := range tids {
		rec, err := tab.Heap.Get(tid)
		if err != nil {
			return 0, err
		}
		row, err := tab.Codec.Decode(rec)
		if err != nil {
			return 0, err
		}
		if err := tab.Heap.Delete(tid); err != nil {
			return 0, err
		}
		for i := range tab.Columns {
			if tree, ok := tab.Indexes[tab.Columns[i].Name]; ok && row[i].Kind == expr.TInt {
				tree.Delete(row[i].I, tid)
			}
		}
	}
	tab.Card -= int64(len(tids))
	if len(tids) > 0 {
		d.inner.Cat.BumpVersion()
	}
	return len(tids), nil
}

// sortPredsByRank orders predicates ascending by (selectivity−1)/cost.
func sortPredsByRank(preds []*query.Predicate) {
	sort.SliceStable(preds, func(i, j int) bool {
		ri, rj := preds[i].Rank(), preds[j].Rank()
		if ri != rj {
			return ri < rj
		}
		return preds[i].ID < preds[j].ID
	})
}
