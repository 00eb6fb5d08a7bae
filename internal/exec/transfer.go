package exec

// Predicate transfer (DESIGN.md §16): before the main plan runs, a prepass
// walks the join graph's equality classes and floods selectivity sideways
// through Bloom filters. Each class keeps one current filter; tables are
// scanned smallest-estimated first (forward), then in reverse (backward),
// and every scan probes the class's previous filter, applies the table's own
// local predicates, and rebuilds the filter from its survivors. By
// induction, any value that can appear in the final join output survives
// every rebuild (the filter has no false negatives), so the main plan's
// scans can consult the final filters and drop non-matching rows before
// paying for the full-row decode.
//
// The prepass is deterministic regardless of Env.BatchSize, and every
// filter build and probe is charged
// into the cost model (ChargeBloomAdd/ChargeBloomProbe) — transfer is never
// free. A backward-pass rescan is skipped when none of the table's class
// filters changed since its forward scan (version counters), so the pass
// costs at most two heap scans per transferred table and usually less.

import (
	"sort"
	"sync/atomic"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// transferBatch is the record granularity of the prepass scan loops: key
// hashes are buffered per slot and pushed through TestBatch/AddBatch once
// per batch.
const transferBatch = 256

// transferClass is one join-key equivalence class: the transitive closure of
// two-table equality join predicates. Every column in the class is equal in
// every output row, so a filter built from any member's surviving values is
// a sound pre-filter for every other member.
type transferClass struct {
	id int
	// cols maps table name → the table-schema column indexes in the class
	// (usually one; self-equalities can contribute several).
	cols map[string][]int
	// names lists the member columns as "table.col", sorted — the class's
	// deterministic identity, also used for EXPLAIN annotations.
	names []string
	// filter is the class's current filter (nil until the first build);
	// replaced wholesale after each contributing table scan.
	filter  *bloomFilter
	version int
	// keys mirrors the exact hash set behind filter — only captured while
	// profiling, to measure the actual false-positive rate.
	keys map[uint64]struct{}
}

// transferSlot binds one table column to its class, with the prepass's
// per-batch hash scratch.
type transferSlot struct {
	class  *transferClass
	colIdx int
	hs     []uint64
}

// cheapPred is a zero-cost single-table comparison the prepass applies
// directly to partially decoded records.
type cheapPred struct {
	colIdx int
	op     expr.CmpOp
	val    expr.Value
}

// tableProbe is one received filter a main-plan scan consults for a table.
type tableProbe struct {
	colIdx int
	class  *transferClass
}

// transferTable is one base table participating in the transfer schedule.
type transferTable struct {
	tab   *catalog.Table
	slots []transferSlot
	cheap []cheapPred
	// costly holds cacheable expensive single-table predicates, evaluated in
	// the prepass only when the predicate cache is on (the invocations warm
	// the same cache entries the main plan will hit, so the work is paid
	// once and the survivors sharpen every filter the table seeds).
	costly     []*compiledPred
	costlyCols []int
	est        float64 // estimated rows after local predicates
	seen       []int   // class versions at this table's last prepass scan
	probes     []tableProbe
}

// transferState carries the prepass's filters and counters through the rest
// of the query; main-plan scans read it (immutably) via Env.transferProbes.
type transferState struct {
	classes []*transferClass
	tables  map[string]*transferTable
	order   []*transferTable

	filtersBuilt   int
	buildRows      int64
	prepassCharged float64
	prepassProbes  int64

	pruned      atomic.Int64
	fpNonMember atomic.Int64
	fpFalse     atomic.Int64
}

// newTransferState derives the transfer schedule from a plan tree: join-key
// equivalence classes from its equality join predicates, local predicates
// per base table, and the smallest-first scan order. Returns nil when the
// plan has no class spanning two tables (single-table queries, pure
// expensive-join graphs) — transfer then has nothing to do.
func newTransferState(e *Env, root plan.Node) (*transferState, error) {
	var preds []*query.Predicate
	seenPred := map[*query.Predicate]bool{}
	baseTables := map[string]bool{}
	addPred := func(p *query.Predicate) {
		if p != nil && !seenPred[p] {
			seenPred[p] = true
			preds = append(preds, p)
		}
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.SeqScan:
			baseTables[t.Table] = true
		case *plan.IndexScan:
			baseTables[t.Table] = true
			addPred(t.Matched)
		case *plan.Filter:
			addPred(t.Pred)
		case *plan.Join:
			addPred(t.Primary)
		}
	})

	// Union-find over "table.col" keys, seeded by the equality join edges.
	parent := map[string]string{}
	refs := map[string]query.ColRef{}
	key := func(r query.ColRef) string {
		k := r.Table + "." + r.Col
		refs[k] = r
		return k
	}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra { // smaller key roots, for deterministic class identity
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for _, p := range preds {
		if p.Kind == query.KindJoinCmp && p.Op == expr.OpEQ && len(p.Tables) == 2 &&
			baseTables[p.Left.Table] && baseTables[p.Right.Table] {
			union(key(p.Left), key(p.Right))
		}
	}

	groups := map[string][]string{}
	for k := range parent {
		r := find(k)
		groups[r] = append(groups[r], k)
	}
	roots := make([]string, 0, len(groups))
	for r, members := range groups {
		tabs := map[string]bool{}
		for _, m := range members {
			tabs[refs[m].Table] = true
		}
		if len(tabs) >= 2 {
			roots = append(roots, r)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	sort.Strings(roots)

	ts := &transferState{tables: map[string]*transferTable{}}
	table := func(name string) (*transferTable, error) {
		if t := ts.tables[name]; t != nil {
			return t, nil
		}
		tab, err := e.Cat.Table(name)
		if err != nil {
			return nil, err
		}
		t := &transferTable{tab: tab, est: float64(tab.Card)}
		ts.tables[name] = t
		return t, nil
	}
	for i, r := range roots {
		members := groups[r]
		sort.Strings(members)
		c := &transferClass{id: i, cols: map[string][]int{}, names: members}
		for _, m := range members {
			ref := refs[m]
			t, err := table(ref.Table)
			if err != nil {
				return nil, err
			}
			c.cols[ref.Table] = append(c.cols[ref.Table], t.tab.ColIndex(ref.Col))
			t.slots = append(t.slots, transferSlot{class: c, colIdx: t.tab.ColIndex(ref.Col), hs: make([]uint64, transferBatch)})
			t.seen = append(t.seen, 0)
		}
		ts.classes = append(ts.classes, c)
	}

	// Local predicates: cheap comparisons always; expensive cacheable
	// functions only when the cache will keep their main-plan cost at zero.
	for _, p := range preds {
		if len(p.Tables) != 1 {
			continue
		}
		t := ts.tables[p.Tables[0]]
		if t == nil {
			continue
		}
		switch p.Kind {
		case query.KindSelCmp:
			idx := t.tab.ColIndex(p.Left.Col)
			if idx < 0 {
				continue
			}
			t.cheap = append(t.cheap, cheapPred{colIdx: idx, op: p.Op, val: p.Value})
		case query.KindFunc:
			if p.Func == nil || !e.Cache.Enabled() || !p.Func.Cacheable {
				continue
			}
			cols := make([]query.ColRef, len(t.tab.Columns))
			for i, c := range t.tab.Columns {
				cols[i] = query.ColRef{Table: t.tab.Name, Col: c.Name}
			}
			cp, err := compilePred(p, cols)
			if err != nil {
				return nil, err
			}
			t.costly = append(t.costly, cp)
			for _, idx := range cp.argIdx {
				t.costlyCols = append(t.costlyCols, idx)
			}
		default: // single-table join predicates cannot occur
			continue
		}
		if s := p.Selectivity; s > 0 && s < 1 {
			t.est *= s
		}
	}

	ts.order = make([]*transferTable, 0, len(ts.tables))
	for _, t := range ts.tables {
		ts.order = append(ts.order, t)
	}
	sort.Slice(ts.order, func(i, j int) bool {
		a, b := ts.order[i], ts.order[j]
		if a.est != b.est {
			return a.est < b.est
		}
		return a.tab.Name < b.tab.Name
	})
	return ts, nil
}

// runTransferPrepass derives the transfer schedule from the plan and
// executes it: a forward pass over the tables smallest-first, then a
// backward pass that rescans only tables whose received filters changed.
// Errors (budget, cancellation, injected faults) propagate exactly as main
// execution errors do; the heap iterators are closed on every path.
func (e *Env) runTransferPrepass(root plan.Node) error {
	ts, err := newTransferState(e, root)
	if err != nil || ts == nil {
		return err
	}
	charged0 := e.Charged()
	probes0 := e.bloomProbes.Load()
	for _, t := range ts.order {
		if err := ts.scanTable(e, t); err != nil {
			return err
		}
	}
	for i := len(ts.order) - 1; i >= 0; i-- {
		t := ts.order[i]
		if !t.dirty() {
			continue
		}
		if err := ts.scanTable(e, t); err != nil {
			return err
		}
	}
	for _, t := range ts.order {
		for _, s := range t.slots {
			if s.class.filter != nil {
				t.probes = append(t.probes, tableProbe{colIdx: s.colIdx, class: s.class})
			}
		}
	}
	ts.prepassCharged = e.Charged() - charged0
	ts.prepassProbes = e.bloomProbes.Load() - probes0
	// Leave the query's I/O ledger cold: the prepass scans warm the
	// simulated LRU in a serial, schedule-dependent order, and the main
	// plan's charged hit pattern would depend on that leftover state.
	// Evicting the simulation makes each main-scan page miss exactly once
	// regardless of executor mode, keeping the charged cost deterministic
	// and batching-invariant. The shared pool is
	// left alone — other sessions' resident pages are not ours to evict, and
	// physical residency no longer affects this query's measurement.
	e.trk().EvictUnpinned()
	e.transfer = ts
	return nil
}

// dirty reports whether any of the table's class filters was rebuilt since
// its last prepass scan — the backward pass's skip condition.
func (t *transferTable) dirty() bool {
	for i, s := range t.slots {
		if s.class.version != t.seen[i] {
			return true
		}
	}
	return false
}

// scanTable runs one prepass scan of a table: apply cheap local predicates
// to partially decoded records, probe each class's previous filter, evaluate
// cacheable expensive predicates on the survivors, and rebuild every class
// filter the table contributes to from what remains. The class filters are
// replaced only after the scan completes, so the scan consistently probes
// the pre-scan filters.
func (ts *transferState) scanTable(e *Env, t *transferTable) error {
	it := e.heap(t.tab).Scan()
	defer it.Close()

	builders := map[*transferClass]*bloomFilter{}
	var keysets map[*transferClass]map[uint64]struct{}
	if e.prof != nil {
		keysets = map[*transferClass]map[uint64]struct{}{}
	}
	for i := range t.slots {
		c := t.slots[i].class
		if builders[c] == nil {
			builders[c] = newBloomFilter(int64(t.est) + 1)
			if keysets != nil {
				keysets[c] = map[uint64]struct{}{}
			}
		}
	}

	width := len(t.tab.Columns)
	var (
		keep    [transferBatch]bool
		slotVal = make([]expr.Value, len(t.slots))
		rows    []expr.Row
		backing []expr.Value
	)
	if len(t.costly) > 0 {
		backing = make([]expr.Value, transferBatch*width)
		rows = make([]expr.Row, transferBatch)
		for i := range rows {
			rows[i] = backing[i*width : (i+1)*width]
		}
	}

	flush := func(m int) error {
		if m == 0 {
			return nil
		}
		for i := 0; i < m; i++ {
			keep[i] = true
		}
		probes := 0
		for si := range t.slots {
			s := &t.slots[si]
			if s.class.filter == nil {
				continue
			}
			probes += s.class.filter.TestBatch(s.hs[:m], keep[:m])
		}
		e.ChargeBloomProbe(probes)
		for i := 0; i < m; i++ {
			if !keep[i] {
				ts.pruned.Add(1)
			}
		}
		for _, cp := range t.costly {
			for i := 0; i < m; i++ {
				if !keep[i] {
					continue
				}
				pass, err := cp.holds(e, rows[i])
				if err != nil {
					return err
				}
				if !pass {
					keep[i] = false
				}
			}
		}
		added := 0
		for si := range t.slots {
			s := &t.slots[si]
			n := 0
			for i := 0; i < m; i++ {
				if keep[i] {
					s.hs[n] = s.hs[i]
					n++
				}
			}
			builders[s.class].AddBatch(s.hs[:n])
			added += n
			if ks := keysets[s.class]; ks != nil {
				for _, h := range s.hs[:n] {
					ks[h] = struct{}{}
				}
			}
		}
		e.ChargeBloomAdd(added)
		return nil
	}

	count, m := 0, 0
	for {
		rec, _, ok, err := it.NextRef()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		count++
		if count%1024 == 0 {
			if err := e.checkAbort(); err != nil {
				return err
			}
		}
		pass := true
		for _, cp := range t.cheap {
			v, err := t.tab.Codec.DecodeCol(rec, cp.colIdx)
			if err != nil {
				return err
			}
			b, known := cp.op.Apply(v, cp.val).Bool()
			if !known || !b {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		for si := range t.slots {
			v, err := t.tab.Codec.DecodeCol(rec, t.slots[si].colIdx)
			if err != nil {
				return err
			}
			if v.IsNull() {
				// A NULL join key never equi-joins; the row cannot reach
				// the output, so it contributes to no filter.
				pass = false
				break
			}
			slotVal[si] = v
		}
		if !pass {
			continue
		}
		for si := range t.slots {
			t.slots[si].hs[m] = keyHash(slotVal[si])
		}
		if rows != nil {
			for _, idx := range t.costlyCols {
				v, err := t.tab.Codec.DecodeCol(rec, idx)
				if err != nil {
					return err
				}
				rows[m][idx] = v
			}
		}
		m++
		if m == transferBatch {
			if err := flush(m); err != nil {
				return err
			}
			m = 0
		}
	}
	if err := flush(m); err != nil {
		return err
	}

	// Publish: replace each contributed class filter with this table's
	// rebuild and remember the versions this scan saw.
	done := map[*transferClass]bool{}
	for si := range t.slots {
		c := t.slots[si].class
		if !done[c] {
			done[c] = true
			c.filter = builders[c]
			c.keys = keysets[c]
			c.version++
			ts.filtersBuilt++
			ts.buildRows += builders[c].adds
		}
		t.seen[si] = c.version
	}
	return nil
}

// transferProbes returns the received-filter probe list for a base table —
// nil when transfer is off, the prepass built nothing, or the table is
// outside every class. Read-only after the prepass.
func (e *Env) transferProbes(table string) []tableProbe {
	if e.transfer == nil {
		return nil
	}
	if t := e.transfer.tables[table]; t != nil {
		return t.probes
	}
	return nil
}

// testFilter probes one class filter, feeding the exact-set false-positive
// measurement when profiling captured the filter's key set.
func (e *Env) testFilter(c *transferClass, h uint64) bool {
	pass := c.filter.Test(h)
	if c.keys != nil {
		if _, member := c.keys[h]; !member {
			e.transfer.fpNonMember.Add(1)
			if pass {
				e.transfer.fpFalse.Add(1)
			}
		}
	}
	return pass
}

// probeRecord consults every received filter for one raw heap record,
// decoding only the key columns — the caller skips the full-row decode when
// the record is pruned. A NULL join key prunes without a probe (NULL never
// equi-joins). Probes short-circuit in deterministic slot order, and the
// charge is counted after the loop so a short-circuited record still
// charges exactly the tests it performed.
func (e *Env) probeRecord(codec *catalog.RowCodec, rec []byte, probes []tableProbe, tc *opCounters) (bool, error) {
	keep := true
	tested := 0
	var derr error
	for i := range probes {
		p := &probes[i]
		v, err := codec.DecodeCol(rec, p.colIdx)
		if err != nil {
			derr = err
			break
		}
		if v.IsNull() {
			keep = false
			break
		}
		tested++
		if !e.testFilter(p.class, keyHash(v)) {
			keep = false
			break
		}
	}
	e.ChargeBloomProbe(tested)
	if tc != nil {
		tc.transferProbes.Add(int64(tested))
	}
	if derr != nil {
		return false, derr
	}
	if !keep {
		e.transfer.pruned.Add(1)
		if tc != nil {
			tc.transferPruned.Add(1)
		}
	}
	return keep, nil
}

// probeRow is the decoded-row variant used by index scans, whose rows are
// already fetched and decoded — pruning saves the downstream operators, not
// the decode.
func (e *Env) probeRow(row expr.Row, probes []tableProbe, tc *opCounters) bool {
	keep := true
	tested := 0
	for i := range probes {
		p := &probes[i]
		v := row[p.colIdx]
		if v.IsNull() {
			keep = false
			break
		}
		tested++
		if !e.testFilter(p.class, keyHash(v)) {
			keep = false
			break
		}
	}
	e.ChargeBloomProbe(tested)
	if tc != nil {
		tc.transferProbes.Add(int64(tested))
	}
	if !keep {
		e.transfer.pruned.Add(1)
		if tc != nil {
			tc.transferPruned.Add(1)
		}
	}
	return keep
}

// stats summarizes the transfer stage for Stats/EXPLAIN ANALYZE.
func (ts *transferState) stats(e *Env) *TransferStats {
	s := &TransferStats{
		Classes:        len(ts.classes),
		FiltersBuilt:   ts.filtersBuilt,
		BuildRows:      ts.buildRows,
		Probes:         e.bloomProbes.Load(),
		Pruned:         ts.pruned.Load(),
		PrepassCharged: ts.prepassCharged,
		ProbeCharge:    float64(e.bloomProbes.Load()-ts.prepassProbes) * cost.BloomProbePerTuple,
		FPActual:       -1,
	}
	for _, c := range ts.classes {
		if c.filter != nil {
			s.FPEst += c.filter.EstFPRate()
		}
	}
	if len(ts.classes) > 0 {
		s.FPEst /= float64(len(ts.classes))
	}
	if nm := ts.fpNonMember.Load(); nm > 0 {
		s.FPActual = float64(ts.fpFalse.Load()) / float64(nm)
	}
	return s
}
