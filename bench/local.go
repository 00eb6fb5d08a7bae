package main

// The closed-loop workloads (paper-queries, adhoc-planning): one client
// sends each statement through the facade after the previous one returned.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"predplace"
)

// execRec is one measured execution.
type execRec struct {
	d        int // index into localBench.distinct
	lat      time.Duration
	err      string
	out      outcome
	prepare  time.Duration // traced window only
	execTime time.Duration
	miss     bool
	probe    *probe // the layer replay of a traced execution
}

type localBench struct {
	spec     *Spec
	opts     options
	warm     []stmt
	next     func() []stmt
	distinct []stmt
	index    map[stmt]int
	charged  []float64 // charged cost of each distinct statement's first run
	recs     []execRec
	counts   layerCounts
	hasher   *rowHasher
	prober   *prober // replays traced executions
	probeErr error
}

func newLocalBench(spec *Spec, o options) (*localBench, error) {
	b := &localBench{spec: spec, opts: o, index: map[stmt]int{}, hasher: newRowHasher()}
	switch spec.Name {
	case "paper-queries":
		cycle := paperCycle(o.seed)
		b.warm = cycle
		b.next = func() []stmt { return cycle }
	case "adhoc-planning":
		seen := map[string]bool{}
		b.warm = newAdhocGen(o.seed^0x5eed, seen).cycle()
		gen := newAdhocGen(o.seed, seen)
		b.next = gen.cycle
	default:
		return nil, fmt.Errorf("no closed-loop driver for workload %q", spec.Name)
	}
	return b, nil
}

// setup opens the database and warms it with the warm-up statements.
func (b *localBench) setup() (*predplace.DB, time.Duration, error) {
	t0 := time.Now()
	db, err := predplace.Open(openConfig(b.spec))
	if err != nil {
		return nil, 0, err
	}
	for _, s := range b.warm {
		if _, err := query(db, s.SQL, s.Algo); err != nil {
			return nil, 0, fmt.Errorf("warm-up %q: %w", s.SQL, err)
		}
	}
	return db, time.Since(t0), nil
}

// window runs whole statement cycles until dur of statement time has been
// measured. With tr set, each statement runs as DB.Prepare plus
// PreparedStatement.Exec inside spans, its profile is collected, and the
// prober replays it; only the facade calls count as statement time.
func (b *localBench) window(db *predplace.DB, dur time.Duration, tr *tracer) *window {
	w := &window{}
	m0 := snapMem()
	for w.busy < dur {
		for _, s := range b.next() {
			rec := b.execute(db, s, tr)
			w.busy += rec.lat
			w.latMs = append(w.latMs, ms(rec.lat))
			if rec.err != "" {
				w.failed++
			} else {
				w.charged = append(w.charged, rec.out.charged)
			}
			b.recs = append(b.recs, rec)
		}
	}
	w.mem = snapMem().since(m0)
	return w
}

func (b *localBench) execute(db *predplace.DB, s stmt, tr *tracer) execRec {
	d, ok := b.index[s]
	if !ok {
		d = len(b.distinct)
		b.index[s] = d
		b.distinct = append(b.distinct, s)
		b.charged = append(b.charged, -1)
	}
	rec := execRec{d: d}
	ctx, cancel := context.WithTimeout(context.Background(), stmtDeadline)
	defer cancel()
	var res *predplace.Result
	var err error
	if tr == nil {
		t0 := time.Now()
		res, err = db.QueryContext(ctx, s.SQL, s.Algo)
		rec.lat = time.Since(t0)
	} else {
		id := tr.stmtID()
		root := tr.begin(id, -1, "stmt")
		_, m0, _, _ := db.PlanCacheStats()
		sp := tr.begin(id, root, "predplace.DB.Prepare")
		var ps *predplace.PreparedStatement
		ps, err = db.Prepare(s.SQL, s.Algo)
		rec.prepare = tr.end(sp)
		_, m1, _, _ := db.PlanCacheStats()
		rec.miss = m1 > m0
		if err == nil {
			sp = tr.begin(id, root, "predplace.PreparedStatement.Exec")
			res, err = ps.ExecContext(ctx)
			rec.execTime = tr.end(sp)
		}
		rec.lat = tr.end(root)
	}
	switch {
	case err != nil:
		rec.err = err.Error()
	case res.DNF:
		rec.err = "did not finish"
	default:
		// Checking happens after the latency was taken.
		rec.out = outcome{rowHash: b.hasher.values(res.Cols, res.Rows), rows: len(res.Rows), charged: res.Stats.Charged()}
		if b.charged[d] < 0 {
			b.charged[d] = rec.out.charged
		}
		if tr != nil {
			b.counts.add(res)
			p, err := b.prober.once(s, true, rec.out.charged)
			if err != nil && b.probeErr == nil {
				b.probeErr = err
			}
			rec.probe = &p
		}
	}
	return rec
}

// check runs the oracle over every recorded execution and returns the
// number of failed executions and the problems found.
func (b *localBench) check() (int, []string, error) {
	refs, problems, err := references(openConfig(b.spec), b.distinct)
	if err != nil {
		return 0, nil, err
	}
	failed := 0
	for _, r := range b.recs {
		msg := r.err
		if msg == "" {
			ref := refs[r.d]
			if ref.charged < 0 {
				ref.charged = b.charged[r.d] // repeats must match the first run
			}
			msg = ref.verify(r.out)
		}
		if msg != "" {
			failed++
			if len(problems) < 10 {
				problems = append(problems, fmt.Sprintf("%s [%s]: %s", b.distinct[r.d].SQL, b.distinct[r.d].Algo, msg))
			}
		}
	}
	return failed, problems, nil
}

func runLocal(spec *Spec, o options) (*result, error) {
	b, err := newLocalBench(spec, o)
	if err != nil {
		return nil, err
	}
	var db *predplace.DB
	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		db = nil
		runtime.GC()
		if db, setups[i], err = b.setup(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	res := &result{report: specLines(spec, o)}
	if !o.trace {
		w := b.window(db, o.seconds, nil)
		live := liveHeapMB()
		runtime.KeepAlive(db)
		failed, problems, err := b.check()
		if err != nil {
			return nil, err
		}
		w.failed = failed
		res.attempted, res.failed, res.problems = len(w.latMs), failed, problems
		res.metrics = endToEnd(setups, w, live)
		res.report = append(res.report, describe("end-to-end metrics:", res.metrics)...)
		return res, nil
	}
	return b.traced(db, res)
}

// traced runs an untraced window (the overhead baseline), then the traced
// window, in which every statement is also replayed layer by layer right
// after it ran, and assembles the per-layer metrics.
func (b *localBench) traced(db *predplace.DB, res *result) (*result, error) {
	// The replay database exists before either window so that both run with
	// the same live heap, and so the same GC load; the warm-up statements
	// bring its buffer pool to the state the measured one is in.
	pr, err := newProber(b.spec)
	if err != nil {
		return nil, err
	}
	if msg := pr.checkPool(b.spec.DataFits); msg != "" {
		res.problems = append(res.problems, msg)
	}
	for _, s := range b.warm {
		if _, err := pr.once(s, false, -1); err != nil {
			return nil, err
		}
	}
	untraced := b.window(db, b.opts.seconds/3, nil)
	db.SetProfile(true)
	tr := newTracer()
	pr.tr = tr
	b.prober = pr
	h0, m0, e0, _ := db.PlanCacheStats()
	w := b.window(db, b.opts.seconds-b.opts.seconds/3, tr)
	h1, m1, e1, _ := db.PlanCacheStats()
	if b.probeErr != nil {
		return nil, b.probeErr
	}
	failed, problems, err := b.check()
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = len(b.recs), failed
	res.problems = append(res.problems, problems...)

	m := layerMetrics()
	n := float64(len(w.latMs))
	m.put("predplace.plancache_evictions_per_stmt", float64(e1-e0)/n)
	if h1+m1 > h0+m0 {
		m.put("predplace.plancache_hit_ratio", float64(h1-h0)/float64(h1-h0+m1-m0))
	}
	m.put("runtime.gc_cycles_per_stmt", float64(w.mem.gcCycles)/n)
	m.put("runtime.gc_pause_ms_per_stmt", float64(w.mem.gcPauseNs)/1e6/n)
	m.put("trace.overhead_share", traceOverhead(untraced.latMs, w.latMs))
	b.counts.fill(m)

	// Attribute each traced execution's time to the layers: parse, bind
	// and plan only run on a plan-cache miss; Exec is exec.Run plus the
	// facade's projection and result shaping.
	var hit, miss, execMs []float64
	var probes []probe
	var lt layerTimes
	var finish time.Duration
	for _, r := range b.recs {
		if r.probe == nil {
			continue
		}
		p := *r.probe
		probes = append(probes, p)
		execMs = append(execMs, ms(r.execTime))
		lt.total += r.prepare + r.execTime
		var planned time.Duration
		if r.miss {
			miss = append(miss, ms(r.prepare))
			planned = lt.planning(r.prepare, 1, p)
		} else {
			hit = append(hit, float64(r.prepare)/1e3)
		}
		lt.predplace += r.prepare - planned
		run := min(p.run, r.execTime)
		lt.exec += run
		lt.predplace += r.execTime - run
		finish += r.execTime - p.run
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("no statement of the traced window succeeded")
	}
	pr.fillProbes(m, probes)
	m.put("predplace.prepare_hit_us", median(hit))
	m.put("predplace.prepare_miss_ms", median(miss))
	m.put("predplace.exec_ms", median(execMs))
	m.put("predplace.finish_ms", max(0, ms(finish)/float64(len(probes))))
	res.report = append(res.report, lt.fill(m)...)
	planning := m["share.sqlparse"].Value + m["share.optimizer"].Value
	switch b.spec.Name {
	case "adhoc-planning":
		if planning < 0.5 {
			res.problems = append(res.problems, fmt.Sprintf("adhoc-planning: sqlparse+optimizer take %.1f%% of statement time, want >= 50%%", 100*planning))
		}
	case "paper-queries":
		if planning >= 0.05 {
			res.problems = append(res.problems, fmt.Sprintf("paper-queries: sqlparse+optimizer take %.1f%% of statement time, want < 5%%", 100*planning))
		}
	}
	return res, finishTrace(res, tr, m, b.spec.Name, b.opts.seed)
}
