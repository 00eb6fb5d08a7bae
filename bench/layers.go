package main

// Per-layer measurement for the traced run. The facade does not expose the
// layers beneath DB.Prepare and PreparedStatement.Exec, so the traced run
// replays the workload's statements through each layer's exported API
// (sqlparse.Parse, Binder.Bind, optimizer.Plan, exec.Run) on a datagen.Build
// database built with the workload's configuration, and records a span
// around every call.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"predplace"
	"predplace/internal/datagen"
	"predplace/internal/exec"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/sqlparse"
)

// opKinds are the operator kinds exec.self_ms.<kind> reports; an OpProfile
// whose description starts with none of them counts as Other.
var opKinds = []string{"SeqScan", "IndexScan", "Filter", "ExpensiveFilter",
	"HashJoin", "MergeJoin", "NestLoop", "IndexNestLoop", "Other"}

func opKind(desc string) string {
	word, _, _ := strings.Cut(desc, " ")
	if word == "Filter*" {
		return "ExpensiveFilter"
	}
	for _, k := range opKinds {
		if k == word {
			return k
		}
	}
	return "Other"
}

// layerUnits lists every per-layer metric with its unit. A traced run
// emits all of them; a layer a workload bypasses reports 0.
func layerUnits() [][2]string {
	u := [][2]string{
		{"sqlparse.parse_us", "us"}, {"sqlparse.bind_us", "us"},
		{"optimizer.plan_ms", "ms"}, {"optimizer.plans_retained", "count"},
		{"optimizer.robust_candidates", "count"},
		{"predplace.prepare_hit_us", "us"}, {"predplace.prepare_miss_ms", "ms"},
		{"predplace.plancache_hit_ratio", "ratio"}, {"predplace.plancache_evictions_per_stmt", "count"},
		{"predplace.exec_ms", "ms"}, {"exec.run_ms", "ms"}, {"predplace.finish_ms", "ms"},
		{"exec.rows_in_per_row_out", "ratio"},
		{"expr.udf_invocations_per_stmt", "count"}, {"expr.udf_charge_share", "ratio"},
		{"pcache.hit_ratio", "ratio"},
		{"storage.charged_pages_per_stmt", "count"}, {"storage.pool_hit_ratio", "ratio"},
		{"storage.insert_us", "us"},
		{"server.query_ms", "ms"}, {"server.queued_per_stmt", "count"},
		{"http.handler_ms", "ms"}, {"http.encode_share", "ratio"},
		{"http.response_bytes_per_row", "bytes"},
		{"runtime.gc_cycles_per_stmt", "count"}, {"runtime.gc_pause_ms_per_stmt", "ms"},
		{"loadgen.lag_ms", "ms"},
		{"share.sqlparse", "ratio"}, {"share.optimizer", "ratio"}, {"share.predplace", "ratio"},
		{"share.exec", "ratio"}, {"share.http", "ratio"}, {"share.transport", "ratio"},
		{"trace.overhead_share", "ratio"},
	}
	for _, k := range opKinds {
		u = append(u, [2]string{"exec.self_ms." + k, "ms"})
	}
	return u
}

// layerMetrics returns every per-layer metric set to 0.
func layerMetrics() metrics {
	m := metrics{}
	for _, nu := range layerUnits() {
		m.set(nu[0], 0, nu[1])
	}
	return m
}

// put overwrites a metric's value, keeping its unit.
func (m metrics) put(name string, v float64) {
	e, ok := m[name]
	if !ok {
		panic("bench: unknown metric " + name)
	}
	e.Value = v
	m[name] = e
}

// layerCounts accumulates the counters the facade reports per query.
type layerCounts struct {
	queries             int
	ioPages             int64
	funcCharge, charged float64
	invocations         int64
	cacheHits, misses   int64
	selfNs              map[string]int64
	rowsIn, rowsOut     int64
}

func (c *layerCounts) add(res *predplace.Result) {
	c.queries++
	c.ioPages += res.Stats.IO.Total()
	c.funcCharge += res.Stats.FuncCharge
	c.charged += res.Stats.Charged()
	for _, n := range res.Stats.Invocations {
		c.invocations += n
	}
	c.cacheHits += res.Stats.CacheHits
	c.misses += res.Stats.CacheMisses
	if res.Profile != nil {
		if c.selfNs == nil {
			c.selfNs = map[string]int64{}
		}
		c.addProfile(res.Profile)
	}
}

func (c *layerCounts) addProfile(p *predplace.OpProfile) {
	self := p.WallNs
	for _, ch := range p.Children {
		self -= ch.WallNs
		c.addProfile(ch)
	}
	c.selfNs[opKind(p.Op)] += max(self, 0)
	if len(p.Children) > 0 {
		c.rowsIn += p.RowsIn
		c.rowsOut += p.ActRows
	}
}

// fill sets the counter-derived metrics.
func (c *layerCounts) fill(m metrics) {
	if c.queries == 0 {
		return
	}
	q := float64(c.queries)
	m.put("expr.udf_invocations_per_stmt", float64(c.invocations)/q)
	m.put("storage.charged_pages_per_stmt", float64(c.ioPages)/q)
	if c.charged > 0 {
		m.put("expr.udf_charge_share", c.funcCharge/c.charged)
	}
	if c.cacheHits+c.misses > 0 {
		m.put("pcache.hit_ratio", float64(c.cacheHits)/float64(c.cacheHits+c.misses))
	}
	if c.rowsOut > 0 {
		m.put("exec.rows_in_per_row_out", float64(c.rowsIn)/float64(c.rowsOut))
	}
	for k, ns := range c.selfNs {
		m.put("exec.self_ms."+k, float64(ns)/1e6/q)
	}
}

// probe is one statement's layer timings on the replay database (after
// replay, the medians over its recorded repetitions).
type probe struct {
	parse, bind, plan, run time.Duration
	plansRetained          int
	robustCandidates       int
	robust                 bool
}

// prober replays statements layer by layer on its own database, recording
// spans in tr.
type prober struct {
	spec              *Spec
	db                *datagen.DB
	tr                *tracer
	poolHits, poolMis int64
}

func newProber(spec *Spec) (*prober, error) {
	db, err := datagen.Build(datagen.Config{Scale: spec.Scale, PoolPages: spec.PoolPages, PoolShards: 1})
	if err != nil {
		return nil, fmt.Errorf("replay database: %w", err)
	}
	return &prober{spec: spec, db: db}, nil
}

// dataPages is the number of heap pages the benchmark tables occupy.
func (p *prober) dataPages() int {
	n := 0
	for _, t := range p.db.Cat.Tables() {
		n += t.Heap.NumPages()
	}
	return n
}

// checkPool asserts the workload's stated relation between buffer pool
// and data size.
func (p *prober) checkPool(wantFits bool) string {
	pool, data := p.db.Pool.Capacity(), p.dataPages()
	if (pool >= data) != wantFits {
		return fmt.Sprintf("%s: pool of %d pages vs %d data pages contradicts data_fits=%v", p.spec.Name, pool, data, wantFits)
	}
	return ""
}

// once runs one statement through every layer, recording spans when
// record is set. want is the charged cost the measured run saw (< 0: not
// known); the replay must reproduce it or its timings would describe
// different work.
func (p *prober) once(s stmt, record bool, want float64) (probe, error) {
	tr := p.tr
	if !record {
		tr = nil
	}
	var pr probe
	id := tr.stmtID()
	root := tr.begin(id, -1, "probe")
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin(id, root, "sqlparse.Parse")
	ast, err := sqlparse.Parse(s.SQL)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return pr, err
	}
	sp = tr.begin(id, root, "sqlparse.Binder.Bind")
	bound, err := (&sqlparse.Binder{Cat: p.db.Cat}).Bind(ast)
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return pr, err
	}
	opt := optimizer.New(p.db.Cat, optimizer.Options{
		Algorithm: s.Algo, Caching: p.spec.Caching, RobustE: predplace.DefaultRobustE})
	sp = tr.begin(id, root, "optimizer.Optimizer.Plan")
	plan, info, err := opt.Plan(bound.Query)
	tr.end(sp)
	t3 := time.Now()
	if err != nil {
		return pr, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), stmtDeadline)
	defer cancel()
	env := &exec.Env{Ctx: ctx, Cat: p.db.Cat, Pool: p.db.Pool, Profile: true,
		Cache: pcache.NewManagerScoped(p.spec.Caching, 0, pcache.ByPredicate)}
	h0, m0 := p.db.Pool.HitRate()
	sp = tr.begin(id, root, "exec.Run")
	out, err := exec.Run(env, plan)
	tr.end(sp)
	t4 := time.Now()
	if err != nil {
		return pr, err
	}
	if got := out.Stats.Charged(); want >= 0 && got != want {
		return pr, fmt.Errorf("replay charged %.17g, measured run charged %.17g: %s", got, want, s.SQL)
	}
	if record {
		h1, m1 := p.db.Pool.HitRate()
		p.poolHits += h1 - h0
		p.poolMis += m1 - m0
	}
	return probe{parse: t1.Sub(t0), bind: t2.Sub(t1), plan: t3.Sub(t2), run: t4.Sub(t3),
		plansRetained: info.PlansRetained, robustCandidates: info.RobustCandidates,
		robust: s.Algo == predplace.Robust}, nil
}

// replay runs the statements once unrecorded (warming the replay pool the
// way the measured run's pool was warm), then reps recorded times in
// order, and returns each statement's median timings.
func (p *prober) replay(stmts []stmt, charged []float64, reps int) ([]probe, error) {
	for i, s := range stmts {
		if _, err := p.once(s, false, charged[i]); err != nil {
			return nil, err
		}
	}
	runs := make([][]probe, len(stmts))
	for r := 0; r < reps; r++ {
		for i, s := range stmts {
			pr, err := p.once(s, true, charged[i])
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], pr)
		}
	}
	out := make([]probe, len(stmts))
	for i, rs := range runs {
		med := func(f func(probe) time.Duration) time.Duration {
			ds := make([]time.Duration, len(rs))
			for j, r := range rs {
				ds[j] = f(r)
			}
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			return ds[(len(ds)-1)/2]
		}
		out[i] = rs[0]
		out[i].parse = med(func(r probe) time.Duration { return r.parse })
		out[i].bind = med(func(r probe) time.Duration { return r.bind })
		out[i].plan = med(func(r probe) time.Duration { return r.plan })
		out[i].run = med(func(r probe) time.Duration { return r.run })
	}
	return out, nil
}

// fillProbes sets the replay-derived metrics.
func (p *prober) fillProbes(m metrics, probes []probe) {
	var parse, bind, plan, run []float64
	var retained, candidates, robust float64
	for _, pr := range probes {
		parse = append(parse, float64(pr.parse)/1e3)
		bind = append(bind, float64(pr.bind)/1e3)
		plan = append(plan, ms(pr.plan))
		run = append(run, ms(pr.run))
		retained += float64(pr.plansRetained)
		if pr.robust {
			robust++
			candidates += float64(pr.robustCandidates)
		}
	}
	m.put("sqlparse.parse_us", median(parse))
	m.put("sqlparse.bind_us", median(bind))
	m.put("optimizer.plan_ms", median(plan))
	m.put("exec.run_ms", median(run))
	m.put("optimizer.plans_retained", retained/float64(len(probes)))
	if robust > 0 {
		m.put("optimizer.robust_candidates", candidates/robust)
	}
	if p.poolHits+p.poolMis > 0 {
		m.put("storage.pool_hit_ratio", float64(p.poolHits)/float64(p.poolHits+p.poolMis))
	}
}

// layerTimes is a statement-time breakdown by layer.
type layerTimes struct {
	sqlparse, optimizer, predplace, exec, http, transport, total time.Duration
}

// planning attributes the replayed parse, bind and plan time, weighted by
// the share of executions that planned, to sqlparse and optimizer, scaled
// down to fit budget (a replay can run slower than the call it stands
// for), and returns the time attributed.
func (l *layerTimes) planning(budget time.Duration, weight float64, p probe) time.Duration {
	parse, plan := weight*float64(p.parse+p.bind), weight*float64(p.plan)
	if sum := parse + plan; sum > float64(budget) {
		parse, plan = parse*float64(budget)/sum, plan*float64(budget)/sum
	}
	l.sqlparse += time.Duration(parse)
	l.optimizer += time.Duration(plan)
	return time.Duration(parse) + time.Duration(plan)
}

func (l *layerTimes) fill(m metrics) []string {
	if l.total <= 0 {
		return nil
	}
	t := float64(l.total)
	parts := []struct {
		name string
		d    time.Duration
	}{{"sqlparse", l.sqlparse}, {"optimizer", l.optimizer}, {"predplace", l.predplace},
		{"exec", l.exec}, {"http", l.http}, {"transport", l.transport}}
	lines := []string{"layer shares of statement time:"}
	for _, p := range parts {
		m.put("share."+p.name, float64(p.d)/t)
		lines = append(lines, fmt.Sprintf("  %-10s %6.1f%%", p.name, 100*float64(p.d)/t))
	}
	return lines
}

// finishTrace writes the span file and adds the span totals and the
// per-layer metrics to the run's result.
func finishTrace(res *result, tr *tracer, m metrics, workload string, seed int64) error {
	tr.computeSelf()
	res.report = append(res.report, spanLines(tr)...)
	file, err := tr.write(".bench_build/trace", workload, seed)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	res.report = append(res.report, "spans written to "+file)
	res.report = append(res.report, describe("per-layer metrics:", m)...)
	res.metrics = m
	return nil
}

// spanLines reports per-span-name totals and self times.
func spanLines(tr *tracer) []string {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for k := range tot {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := []string{"spans (count, total ms, self ms, median ms):"}
	for _, k := range names {
		a := tot[k]
		lines = append(lines, fmt.Sprintf("  %-34s %7d %11.1f %11.1f %9.3f", k, a.Count,
			ms(a.Total), ms(a.Self), 1e3*median(a.durationsSec)))
	}
	return lines
}

// traceOverhead compares statement latency medians of the traced and the
// untraced window of one run.
func traceOverhead(untraced, traced []float64) float64 {
	u := median(untraced)
	if u <= 0 {
		return 0
	}
	return median(traced)/u - 1
}
