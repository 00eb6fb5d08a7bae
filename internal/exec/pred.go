package exec

import (
	"fmt"

	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// compiledPred is a predicate with its column references resolved to row
// positions for a specific operator's output schema.
type compiledPred struct {
	pred *query.Predicate
	// comparison predicates
	op       expr.CmpOp
	leftIdx  int
	rightIdx int        // -1 for col-vs-const
	constVal expr.Value // col-vs-const
	// function predicates
	argIdx []int
	// prof, when profiling is on, receives this predicate's evaluation,
	// invocation, and cache counters, attributed to the plan node the
	// predicate executes at. Nil on the default path (no per-row overhead).
	prof *opCounters
}

// compilePred resolves p's column references against cols.
func compilePred(p *query.Predicate, cols []query.ColRef) (*compiledPred, error) {
	find := func(ref query.ColRef) (int, error) {
		for i, c := range cols {
			if c == ref {
				return i, nil
			}
		}
		return -1, fmt.Errorf("exec: column %s not in operator schema %v", ref, cols)
	}
	cp := &compiledPred{pred: p, op: p.Op, rightIdx: -1}
	switch p.Kind {
	case query.KindSelCmp:
		i, err := find(p.Left)
		if err != nil {
			return nil, err
		}
		cp.leftIdx, cp.constVal = i, p.Value
	case query.KindJoinCmp:
		l, err := find(p.Left)
		if err != nil {
			return nil, err
		}
		r, err := find(p.Right)
		if err != nil {
			return nil, err
		}
		cp.leftIdx, cp.rightIdx = l, r
	case query.KindFunc:
		for _, a := range p.Args {
			i, err := find(a)
			if err != nil {
				return nil, err
			}
			cp.argIdx = append(cp.argIdx, i)
		}
	default:
		return nil, fmt.Errorf("exec: unknown predicate kind %d", p.Kind)
	}
	return cp, nil
}

// eval computes the predicate's tri-state result on a row, consulting the
// predicate cache for cacheable function predicates (the cache stores the
// result of the whole predicate keyed on the argument binding, §5.1).
func (cp *compiledPred) eval(e *Env, row expr.Row) (expr.Value, error) {
	p := cp.pred
	switch p.Kind {
	case query.KindSelCmp:
		return cp.op.Apply(row[cp.leftIdx], cp.constVal), nil
	case query.KindJoinCmp:
		return cp.op.Apply(row[cp.leftIdx], row[cp.rightIdx]), nil
	case query.KindFunc:
		args := make([]expr.Value, len(cp.argIdx))
		for i, idx := range cp.argIdx {
			args[i] = row[idx]
		}
		if e.Cache.Enabled() && p.Func.Cacheable {
			owner := e.Cache.Owner(p.ID, p.Func.Name)
			key := pcache.Key(args)
			if v, ok := e.Cache.Lookup(owner, key); ok {
				if cp.prof != nil {
					cp.prof.cacheHits.Add(1)
				}
				return v, nil
			}
			v, err := e.invoke(p.Func, args)
			if err != nil {
				return expr.Null, err
			}
			if cp.prof != nil {
				cp.prof.cacheMisses.Add(1)
				cp.noteInvocation()
			}
			e.Cache.Store(owner, key, v)
			return v, nil
		}
		if cp.prof != nil {
			cp.noteInvocation()
		}
		return e.invoke(p.Func, args)
	}
	return expr.Null, fmt.Errorf("exec: unknown predicate kind %d", p.Kind)
}

// noteInvocation counts one user-defined function call (and its per-call
// charge) into the predicate's plan node. Callers check cp.prof != nil.
func (cp *compiledPred) noteInvocation() {
	cp.prof.invocations.Add(1)
	if f := cp.pred.Func; !f.RealWork {
		// RealWork functions charge through the I/O accountant instead of a
		// per-call constant (expr.FuncDef.ChargedCost); mirror that here so
		// per-node FuncCharge sums to Stats.FuncCharge.
		cp.prof.addCharge(f.Cost)
	}
}

// holds reports whether the predicate is satisfied (NULL and false both
// reject the row, per SQL WHERE semantics).
func (cp *compiledPred) holds(e *Env, row expr.Row) (bool, error) {
	if cp.prof != nil {
		cp.prof.predEvals.Add(1)
	}
	v, err := cp.eval(e, row)
	if err != nil {
		return false, err
	}
	b, known := v.Bool()
	return known && b, nil
}

// budgetEvery is the input-row cadence of filter abort checks — budget and
// cancellation alike — counted in rows, so it does not depend on the batch
// width.
const budgetEvery = 32

// predScratch holds the reusable buffers of batched predicate evaluation,
// so the hot path allocates nothing per batch: binding keys are encoded
// into one contiguous byte buffer and sliced per row, cache outcomes land
// in a reused entry slice, and argument vectors are reused across rows.
type predScratch struct {
	keyBuf  []byte
	keyOff  []int
	keys    [][]byte
	entries []pcache.BatchEntry
	args    []expr.Value
}

// holdsBatch evaluates the predicate over a whole batch, writing keep[i]
// for each row — the vectorized analog of calling holds row by row, with
// identical results, invocation counts, cache statistics, and budget-check
// cadence (count persists across batches at the same every-32-rows rhythm).
// Cacheable function predicates batch their cache traffic through
// GetBatch/PutBatch when the cache qualifies (unbounded tables), taking
// each shard lock once per batch instead of twice per row.
func (cp *compiledPred) holdsBatch(e *Env, rows []expr.Row, keep []bool, count *int, sc *predScratch) error {
	p := cp.pred
	tick := func() error {
		*count++
		if *count%budgetEvery == 0 {
			return e.checkAbort()
		}
		return nil
	}
	switch p.Kind {
	case query.KindSelCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			b, known := cp.op.Apply(row[cp.leftIdx], cp.constVal).Bool()
			keep[i] = known && b
		}
		return nil
	case query.KindJoinCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			b, known := cp.op.Apply(row[cp.leftIdx], row[cp.rightIdx]).Bool()
			keep[i] = known && b
		}
		return nil
	case query.KindFunc:
		if e.Cache.Batchable() && p.Func.Cacheable {
			return cp.holdsBatchCached(e, rows, keep, count, sc)
		}
		// Uncached (or bounded-cache) path: evaluate row by row exactly as
		// holds would, reusing one argument vector across rows.
		if cap(sc.args) < len(cp.argIdx) {
			sc.args = make([]expr.Value, len(cp.argIdx))
		}
		args := sc.args[:len(cp.argIdx)]
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			var v expr.Value
			if e.Cache.Enabled() && p.Func.Cacheable {
				if cp.prof != nil {
					cp.prof.predEvals.Add(1)
				}
				var err error
				if v, err = cp.eval(e, row); err != nil {
					return err
				}
			} else {
				for k, idx := range cp.argIdx {
					args[k] = row[idx]
				}
				if cp.prof != nil {
					cp.prof.predEvals.Add(1)
					cp.noteInvocation()
				}
				var err error
				if v, err = e.invoke(p.Func, args); err != nil {
					return err
				}
			}
			b, known := v.Bool()
			keep[i] = known && b
		}
		return nil
	}
	return fmt.Errorf("exec: unknown predicate kind %d", p.Kind)
}

// holdsBatchCached is the batched cache protocol for one batch of rows:
// encode every binding, look them all up with one GetBatch, invoke the
// function only for first-occurrence misses (duplicates within the batch
// reuse the earlier result, exactly as sequential execution would have hit
// the just-stored entry), then publish the new results with one PutBatch.
func (cp *compiledPred) holdsBatchCached(e *Env, rows []expr.Row, keep []bool, count *int, sc *predScratch) error {
	p := cp.pred
	n := len(rows)
	// Encode all bindings into one buffer; offsets first, slices after, so
	// buffer growth cannot invalidate earlier keys.
	sc.keyBuf = sc.keyBuf[:0]
	sc.keyOff = append(sc.keyOff[:0], 0)
	for _, row := range rows {
		for _, idx := range cp.argIdx {
			sc.keyBuf = row[idx].AppendKey(sc.keyBuf)
		}
		sc.keyOff = append(sc.keyOff, len(sc.keyBuf))
	}
	if cap(sc.keys) < n {
		sc.keys = make([][]byte, n)
	}
	keys := sc.keys[:n]
	for i := 0; i < n; i++ {
		keys[i] = sc.keyBuf[sc.keyOff[i]:sc.keyOff[i+1]]
	}
	if cap(sc.entries) < n {
		sc.entries = make([]pcache.BatchEntry, n)
	}
	entries := sc.entries[:n]
	owner := e.Cache.Owner(p.ID, p.Func.Name)
	e.Cache.GetBatch(owner, keys, entries)
	if cap(sc.args) < len(cp.argIdx) {
		sc.args = make([]expr.Value, len(cp.argIdx))
	}
	args := sc.args[:len(cp.argIdx)]
	if cp.prof != nil {
		cp.prof.predEvals.Add(int64(n))
	}
	for i := range entries {
		*count++
		if *count%budgetEvery == 0 {
			if err := e.checkAbort(); err != nil {
				return err
			}
		}
		switch entries[i].State {
		case pcache.BatchMiss:
			for k, idx := range cp.argIdx {
				args[k] = rows[i][idx]
			}
			if cp.prof != nil {
				cp.prof.cacheMisses.Add(1)
				cp.noteInvocation()
			}
			v, err := e.invoke(p.Func, args)
			if err != nil {
				return err
			}
			entries[i].Val = v
		case pcache.BatchDup:
			// pcache counts an in-batch duplicate as a hit (the sequential
			// execution it mirrors would have hit the just-stored entry).
			if cp.prof != nil {
				cp.prof.cacheHits.Add(1)
			}
			entries[i].Val = entries[entries[i].Dup].Val
		default: // BatchHit
			if cp.prof != nil {
				cp.prof.cacheHits.Add(1)
			}
		}
	}
	e.Cache.PutBatch(owner, keys, entries)
	for i := range entries {
		b, known := entries[i].Val.Bool()
		keep[i] = known && b
	}
	return nil
}

// compilePreds compiles a slice of predicates against one schema.
func compilePreds(ps []*query.Predicate, cols []query.ColRef) ([]*compiledPred, error) {
	out := make([]*compiledPred, 0, len(ps))
	for _, p := range ps {
		cp, err := compilePred(p, cols)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// joinKeyIdx resolves which side of an equality join predicate lives in
// which child, returning the outer and inner column positions.
func joinKeyIdx(p *query.Predicate, outer, inner plan.Node) (outIdx, inIdx int, err error) {
	if p == nil || p.Kind != query.KindJoinCmp || p.Op != expr.OpEQ {
		return 0, 0, fmt.Errorf("exec: join method requires an equality join predicate, got %v", p)
	}
	lo := plan.ColIndex(outer, p.Left)
	ri := plan.ColIndex(inner, p.Right)
	if lo >= 0 && ri >= 0 {
		return lo, ri, nil
	}
	lo2 := plan.ColIndex(outer, p.Right)
	ri2 := plan.ColIndex(inner, p.Left)
	if lo2 >= 0 && ri2 >= 0 {
		return lo2, ri2, nil
	}
	return 0, 0, fmt.Errorf("exec: join predicate %v does not span the two inputs", p)
}
