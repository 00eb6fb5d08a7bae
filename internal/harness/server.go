package harness

// The multi-session server benchmark: the benchmark queries run through
// predplace.Server from N concurrent client sessions, comparing every
// result against its single-session baseline (the divergence gate — the
// engine's per-query isolation claim is that concurrency never changes
// rows or charged cost), measuring throughput and tail latency as the
// session count grows, and exercising the admission controller's graceful
// shedding and the per-tenant quota clamp. check.sh runs the small-scale
// smoke via ppbench -server; BENCH_server.json is the artifact.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"predplace"
	"predplace/internal/expr"
)

// ServerSessionResult is one session-count leg of the throughput sweep.
type ServerSessionResult struct {
	Sessions int `json:"sessions"`
	// Queries is the total number of queries the leg executed.
	Queries int     `json:"queries"`
	WallMs  float64 `json:"wall_ms"`
	QPS     float64 `json:"qps"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// PlanHits/PlanMisses are this leg's plan-cache deltas: after the first
	// pass over the query mix every session should hit.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	// Diverged counts results whose rows or charged cost differed from the
	// single-session baseline. Any nonzero value fails the bench.
	Diverged int `json:"diverged"`
}

// ServerShedResult is the admission-control leg: a burst of concurrent
// queries against a one-slot, no-queue server must split cleanly into
// served and shed-with-ErrOverloaded, nothing else.
type ServerShedResult struct {
	Burst          int   `json:"burst"`
	Served         int64 `json:"served"`
	Shed           int64 `json:"shed"`
	UnexpectedErrs int   `json:"unexpected_errs"`
}

// ServerQuotaResult is the tenant-quota leg: a tenant whose quota is a
// fraction of one query's cost must get a DNF (the quota clamps the
// query's budget), then an ErrQuotaExceeded rejection.
type ServerQuotaResult struct {
	Quota        float64 `json:"quota"`
	FirstDNF     bool    `json:"first_dnf"`
	ThenRejected bool    `json:"then_rejected"`
}

// ServerBench is the whole multi-session benchmark.
type ServerBench struct {
	Scale    float64               `json:"scale"`
	Iters    int                   `json:"iters"`
	Sessions []ServerSessionResult `json:"sessions"`
	Shed     ServerShedResult      `json:"shed"`
	QuotaLeg ServerQuotaResult     `json:"quota"`
	// Pass is true when no result diverged from its baseline, at least one
	// leg hit the plan cache, shedding split the burst cleanly, and the
	// quota clamp produced DNF-then-reject.
	Pass bool `json:"pass"`
}

// serverBaseline is one query's single-session reference outcome.
type serverBaseline struct {
	rows    []string
	charged float64
}

// RunServerBench runs the query mix from each session count in sessions
// (iters queries per session), then the shedding and quota legs. The DB
// runs with caching off and no per-query budget, so every query's charged
// cost has a single correct value for the divergence gate to check.
func (h *Harness) RunServerBench(sessions []int, iters int) (*ServerBench, error) {
	if len(sessions) == 0 {
		sessions = []int{1, 2, 4, 8}
	}
	if iters < 1 {
		iters = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	h.DB.SetBatchSize(0)

	// Single-session baselines.
	var base []serverBaseline
	for _, q := range benchQueries {
		res, err := h.query(q.sql, predplace.Migration)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", q.name, err)
		}
		base = append(base, serverBaseline{rows: canonicalRows(res), charged: res.Stats.Charged()})
	}

	bench := &ServerBench{Scale: h.Scale, Iters: iters, Pass: true}
	for _, n := range sessions {
		leg, err := h.serverLeg(n, iters, base)
		if err != nil {
			return nil, err
		}
		if leg.Diverged > 0 {
			bench.Pass = false
		}
		bench.Sessions = append(bench.Sessions, *leg)
	}
	// The plan-cache gate: with every leg running the same five statements,
	// the hit path (skip parse/bind/optimize) must carry most executions.
	hits, misses := int64(0), int64(0)
	for _, leg := range bench.Sessions {
		hits += leg.PlanHits
		misses += leg.PlanMisses
	}
	if hits == 0 {
		bench.Pass = false
	}

	bench.Shed = h.serverShedLeg(16)
	if bench.Shed.Shed == 0 || bench.Shed.UnexpectedErrs > 0 ||
		bench.Shed.Served+bench.Shed.Shed != int64(bench.Shed.Burst) {
		bench.Pass = false
	}

	quota := base[0].charged / 2
	bench.QuotaLeg = h.serverQuotaLeg(quota)
	if !bench.QuotaLeg.FirstDNF || !bench.QuotaLeg.ThenRejected {
		bench.Pass = false
	}
	return bench, nil
}

// serverLeg runs n concurrent sessions × iters queries each, every session
// walking the query mix at its own offset, and checks each result against
// its baseline.
func (h *Harness) serverLeg(n, iters int, base []serverBaseline) (*ServerSessionResult, error) {
	srv := predplace.NewServer(h.DB, predplace.ServerConfig{
		// Every session gets a slot: this leg measures execution under
		// concurrency, not shedding.
		MaxConcurrent: n,
	})
	h0, m0, _, _ := h.DB.PlanCacheStats()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []float64
		diverged  int
		firstErr  error
	)
	start := time.Now()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (offset + i) % len(benchQueries)
				ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
				t0 := time.Now()
				res, err := srv.Query(ctx, fmt.Sprintf("session-%d", offset),
					benchQueries[qi].sql, predplace.Migration)
				lat := time.Since(t0).Seconds() * 1e3
				cancel()
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", benchQueries[qi].name, stmtErr(err))
					}
				} else {
					latencies = append(latencies, lat)
					if res.Stats.Charged() != base[qi].charged ||
						!slices.Equal(canonicalRows(res), base[qi].rows) {
						diverged++
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds() * 1e3
	if firstErr != nil {
		return nil, firstErr
	}
	h1, m1, _, _ := h.DB.PlanCacheStats()

	leg := &ServerSessionResult{
		Sessions: n, Queries: n * iters, WallMs: wall,
		PlanHits: h1 - h0, PlanMisses: m1 - m0, Diverged: diverged,
	}
	if wall > 0 {
		leg.QPS = float64(leg.Queries) / (wall / 1e3)
	}
	leg.P50Ms, leg.P99Ms = percentiles(latencies)
	return leg, nil
}

// percentiles returns the p50 and p99 of latencies (ms).
func percentiles(lat []float64) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Float64s(lat)
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return at(0.50), at(0.99)
}

// serverShedLeg fires burst concurrent queries at a one-slot server with no
// queue: the queries that find the slot busy must come back as
// ErrOverloaded, immediately, having consumed nothing. The query naps in
// its predicate so the slot holder yields the processor — on a single-core
// scheduler a pure-CPU query would finish before the next goroutine even
// attempted admission, and nothing would ever contend.
func (h *Harness) serverShedLeg(burst int) ServerShedResult {
	//pplint:ignore errdrop duplicate registration when the bench runs twice on one harness; the first registration is identical
	_ = h.DB.RegisterFunc("nap1ms", 1, 1, 0.5, func(args []expr.Value) predplace.Value {
		time.Sleep(time.Millisecond)
		return expr.B(true)
	})
	sql := "SELECT COUNT(*) FROM t1 WHERE nap1ms(t1.u10)"
	srv := predplace.NewServer(h.DB, predplace.ServerConfig{
		MaxConcurrent: 1,
		MaxQueue:      -1, // shed instead of queueing
	})
	out := ServerShedResult{Burst: burst}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		unexpected int
	)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
			defer cancel()
			_, err := srv.Query(ctx, "burst", sql, predplace.Migration)
			if err != nil && !errors.Is(err, predplace.ErrOverloaded) {
				mu.Lock()
				unexpected++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	st := srv.Stats()
	out.Served, out.Shed, out.UnexpectedErrs = st.Served, st.Shed, unexpected
	return out
}

// serverQuotaLeg gives a tenant a quota below one Query 1 and runs it
// twice: the first run's budget is clamped to the remaining quota (DNF at
// the clamp), the second finds the quota exhausted and is rejected.
func (h *Harness) serverQuotaLeg(quota float64) ServerQuotaResult {
	srv := predplace.NewServer(h.DB, predplace.ServerConfig{MaxConcurrent: 2})
	srv.SetTenantQuota("capped", quota)
	out := ServerQuotaResult{Quota: quota}
	run := func() (*predplace.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
		defer cancel()
		return srv.Query(ctx, "capped", benchQueries[0].sql, predplace.Migration)
	}
	res, err := run()
	out.FirstDNF = err == nil && res.DNF
	_, err = run()
	out.ThenRejected = errors.Is(err, predplace.ErrQuotaExceeded)
	return out
}

// JSON renders the benchmark as indented JSON (BENCH_server.json).
func (b *ServerBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *ServerBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "multi-session server bench: scale=%.3g iters=%d (Migration, caching off)\n",
		b.Scale, b.Iters)
	fmt.Fprintf(&sb, "%-9s %8s %9s %9s %9s %9s %10s %9s\n",
		"sessions", "queries", "wall-ms", "qps", "p50-ms", "p99-ms", "plan-hit", "diverged")
	for _, leg := range b.Sessions {
		total := leg.PlanHits + leg.PlanMisses
		ratio := 0.0
		if total > 0 {
			ratio = float64(leg.PlanHits) / float64(total)
		}
		fmt.Fprintf(&sb, "%-9d %8d %9.1f %9.1f %9.2f %9.2f %9.0f%% %9d\n",
			leg.Sessions, leg.Queries, leg.WallMs, leg.QPS, leg.P50Ms, leg.P99Ms,
			100*ratio, leg.Diverged)
	}
	fmt.Fprintf(&sb, "shedding: burst=%d served=%d shed=%d unexpected=%d\n",
		b.Shed.Burst, b.Shed.Served, b.Shed.Shed, b.Shed.UnexpectedErrs)
	fmt.Fprintf(&sb, "quota: limit=%.0f first-dnf=%v then-rejected=%v\n",
		b.QuotaLeg.Quota, b.QuotaLeg.FirstDNF, b.QuotaLeg.ThenRejected)
	if b.Pass {
		sb.WriteString("PASS: concurrent sessions reproduced every single-session result exactly\n")
	} else {
		sb.WriteString("FAIL: divergence, missed plan-cache hits, or admission misbehavior\n")
	}
	return sb.String()
}
