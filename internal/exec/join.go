package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

func buildJoin(e *Env, j *plan.Join) (Iterator, error) {
	switch j.Method {
	case plan.NestLoop:
		return newNLJoin(e, j)
	case plan.IndexNestLoop:
		return newIndexNLJoin(e, j)
	case plan.HashJoin:
		return newHashJoin(e, j)
	case plan.MergeJoin:
		return newMergeJoin(e, j)
	}
	return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
}

// nlJoinIter is the nested-loop join: the inner subtree is re-opened (and
// physically re-read through the buffer pool) once per outer tuple, exactly
// the access pattern the paper's |S|-pages-per-outer-tuple cost term
// models. The outer is row-driven (nextRow). The primary join predicate —
// which may be an expensive function over both sides (Query 5) — is
// evaluated per pair.
type nlJoinIter struct {
	e        *Env
	node     *plan.Join
	outer    Iterator
	inner    Iterator
	primary  *compiledPred // nil for cross product
	one      [1]expr.Row   // nextRow's buffer for the outer
	outerRow expr.Row
	haveOut  bool
	count    int
	// candidate-pair scratch (reused — survivors are copied to slab rows),
	// inner batch buffer, verdicts, predicate scratch
	pairBuf []expr.Value
	pairs   []expr.Row
	ibuf    []expr.Row
	ipos    int
	ilen    int
	keep    []bool
	sc      predScratch
	alloc   rowAlloc
}

func newNLJoin(e *Env, j *plan.Join) (Iterator, error) {
	outer, err := Build(e, j.Outer)
	if err != nil {
		return nil, err
	}
	it := &nlJoinIter{e: e, node: j, outer: outer}
	if j.Primary != nil {
		cp, err := compilePred(j.Primary, joinCols(j))
		if err != nil {
			return nil, err
		}
		if e.prof != nil {
			cp.prof = e.nodeProf(j)
		}
		it.primary = cp
	}
	return it, nil
}

func joinCols(j *plan.Join) []query.ColRef { return plan.ConcatCols(j.Outer, j.Inner) }

func (n *nlJoinIter) Open() error { return n.outer.Open() }

// NextBatch assembles candidate pairs in a reusable scratch block instead
// of allocating a row per pair (most pairs fail the primary), evaluates the
// primary over the whole block (batched cache traffic included), and
// materializes only the survivors into slab rows. The inner subtree is read
// in batches of streamWidth rows; pair order, page I/O and charged cost do
// not depend on the width.
func (n *nlJoinIter) NextBatch(dst []expr.Row) (int, error) {
	k := len(dst)
	if k == 0 {
		return 0, nil
	}
	w := len(n.node.Outer.Cols()) + len(n.node.Inner.Cols())
	if len(n.pairBuf) < k*w {
		n.pairBuf = make([]expr.Value, k*w)
		n.pairs = make([]expr.Row, k)
		for i := range n.pairs {
			n.pairs[i] = expr.Row(n.pairBuf[i*w : (i+1)*w : (i+1)*w])
		}
		n.keep = make([]bool, k)
	}
	if cap(n.ibuf) < n.e.batchSize() {
		n.ibuf = make([]expr.Row, n.e.batchSize())
	}
	iw := n.e.streamWidth(k)
	for {
		// Gather up to k candidate pairs into the scratch block.
		cand := 0
		for cand < k {
			if !n.haveOut {
				row, ok, err := nextRow(n.outer, &n.one)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				n.outerRow = row
				n.haveOut = true
				if n.inner != nil {
					if err := n.inner.Close(); err != nil {
						return 0, err
					}
				}
				inner, err := Build(n.e, n.node.Inner)
				if err != nil {
					return 0, err
				}
				// Store the rebuilt inner before opening it: if Open fails
				// the join's Close still reaches the new subtree (Close on a
				// half-opened iterator is safe), so a mid-query Open fault
				// cannot strand pinned pages.
				n.inner = inner
				n.ipos, n.ilen = 0, 0
				if err := inner.Open(); err != nil {
					return 0, err
				}
			}
			if n.ipos >= n.ilen {
				m, err := n.inner.NextBatch(n.ibuf[:iw])
				if err != nil {
					return 0, err
				}
				if m == 0 {
					n.haveOut = false
					continue
				}
				n.ipos, n.ilen = 0, m
			}
			irow := n.ibuf[n.ipos]
			n.ipos++
			n.count++
			if n.count%64 == 0 {
				if err := n.e.checkAbort(); err != nil {
					return 0, err
				}
			}
			pair := n.pairs[cand]
			copy(pair, n.outerRow)
			copy(pair[len(n.outerRow):], irow)
			cand++
		}
		if cand == 0 {
			return 0, nil
		}
		out := 0
		if n.primary != nil {
			// The gather loop above already ran the join's every-64-pairs
			// budget cadence; holdsBatch's own ticking on this throwaway
			// counter only adds extra (harmless) abort checks.
			tick := 0
			if err := n.primary.holdsBatch(n.e, n.pairs[:cand], n.keep[:cand], &tick, &n.sc); err != nil {
				return 0, err
			}
			for i := 0; i < cand; i++ {
				if n.keep[i] {
					orow := n.alloc.next(w)
					copy(orow, n.pairs[i])
					dst[out] = orow
					out++
				}
			}
		} else {
			for i := 0; i < cand; i++ {
				orow := n.alloc.next(w)
				copy(orow, n.pairs[i])
				dst[out] = orow
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
	}
}

func (n *nlJoinIter) Close() error {
	var cerr error
	if n.inner != nil {
		cerr = n.inner.Close()
		n.inner = nil
	}
	return errors.Join(cerr, n.outer.Close())
}

// indexNLJoinIter probes the inner base table's B-tree with each outer
// tuple's join value, fetches matching tuples, and applies the inner-side
// residual filters to each fetched match. The outer is row-driven
// (nextRow): one probe per outer row, in outer order.
type indexNLJoinIter struct {
	e     *Env
	node  *plan.Join
	outer Iterator
	tab   *catalog.Table
	// tree and heap are the inner index and heap viewed through the query's
	// I/O tracker, resolved once at Open so per-probe access doesn't re-wrap.
	tree      *btree.Tree
	heap      *storage.HeapFile
	outKeyIdx int
	residual  []*compiledPred // inner-side filters, innermost first
	// Profiling attribution for the probe-driven inner chain, whose plan
	// nodes are never built as iterators: baseRows counts heap rows the
	// probes fetch (the base scan's output), residualRows[i] counts rows
	// surviving residual[i] (that filter node's output). Nil when profiling
	// is off — the default path is untouched.
	baseRows     *int64
	residualRows []*int64
	one          [1]expr.Row // nextRow's buffer for the outer
	outerRow     expr.Row
	// The current outer row's surviving inner rows, decoded back to back
	// into mvals (reused across probes; output rows are copied into alloc's
	// slabs): matches of them, the next to emit at pos.
	mvals   []expr.Value
	matches int
	pos     int
	irow    expr.Row // the row decode fills
	decode  func(rec []byte) error
	memo    catalog.DecodeMemo
	alloc   rowAlloc
	count   int
}

func newIndexNLJoin(e *Env, j *plan.Join) (Iterator, error) {
	table, filters, ok := plan.BaseTable(j.Inner)
	if !ok {
		return nil, fmt.Errorf("exec: index-nested-loop inner must be a (filtered) base table")
	}
	tab, err := e.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	if !tab.HasIndex(j.InnerIndexCol) {
		return nil, fmt.Errorf("exec: no index on %s.%s", table, j.InnerIndexCol)
	}
	if j.Primary == nil || j.Primary.Kind != query.KindJoinCmp || j.Primary.Op != expr.OpEQ {
		return nil, fmt.Errorf("exec: index-nested-loop requires an equality primary predicate")
	}
	// Which side of the primary is the outer key?
	var outerKey query.ColRef
	innerRef := query.ColRef{Table: table, Col: j.InnerIndexCol}
	switch {
	case j.Primary.Right == innerRef:
		outerKey = j.Primary.Left
	case j.Primary.Left == innerRef:
		outerKey = j.Primary.Right
	default:
		return nil, fmt.Errorf("exec: primary %v does not match index column %s", j.Primary, innerRef)
	}
	outIdx := plan.ColIndex(j.Outer, outerKey)
	if outIdx < 0 {
		return nil, fmt.Errorf("exec: outer key %v not in outer schema", outerKey)
	}
	outer, err := Build(e, j.Outer)
	if err != nil {
		return nil, err
	}
	// Residual filters apply innermost (lowest) first.
	rev := make([]*query.Predicate, 0, len(filters))
	for i := len(filters) - 1; i >= 0; i-- {
		rev = append(rev, filters[i])
	}
	residual, err := compilePreds(rev, j.Inner.Cols())
	if err != nil {
		return nil, err
	}
	it := &indexNLJoinIter{
		e: e, node: j, outer: outer, tab: tab,
		outKeyIdx: outIdx, residual: residual,
	}
	it.decode = func(rec []byte) error { return tab.Codec.DecodeIntoMemo(rec, it.irow, &it.memo) }
	if e.prof != nil {
		// Attribute the inner chain to its plan nodes: residual[i] was
		// reversed out of BaseTable's filters, so its node is predNodes
		// mirrored. When the base scan's own Matched predicate is part of
		// the chain, surviving it is the base node's output; otherwise every
		// fetched heap row is.
		if base, predNodes, ok := plan.BaseTableNodes(j.Inner); ok {
			it.residualRows = make([]*int64, len(residual))
			for i := range residual {
				node := predNodes[len(predNodes)-1-i]
				it.residualRows[i] = e.nodeCounter(node)
				residual[i].prof = e.nodeProf(node)
			}
			if len(predNodes) == 0 || predNodes[len(predNodes)-1] != base {
				it.baseRows = e.nodeCounter(base)
			}
		}
	}
	return it, nil
}

func (n *indexNLJoinIter) Open() error {
	n.tree = n.e.index(n.tab.Indexes[n.node.InnerIndexCol])
	n.heap = n.e.heap(n.tab)
	return n.outer.Open()
}

// NextBatch emits the current outer row's matches into slab rows, pulling
// and probing the next outer row when they run out. Probe order, page I/O
// and the every-64-outer-rows budget check do not depend on the width.
func (n *indexNLJoinIter) NextBatch(dst []expr.Row) (int, error) {
	w := len(n.tab.Columns)
	k := 0
	for k < len(dst) {
		if n.pos < n.matches {
			out := n.alloc.next(len(n.outerRow) + w)
			copy(out, n.outerRow)
			copy(out[len(n.outerRow):], n.mvals[n.pos*w:(n.pos+1)*w])
			dst[k] = out
			k++
			n.pos++
			continue
		}
		row, ok, err := nextRow(n.outer, &n.one)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		n.outerRow = row
		if err := n.probe(row[n.outKeyIdx]); err != nil {
			return 0, err
		}
		n.count++
		if n.count%64 == 0 {
			if err := n.e.checkAbort(); err != nil {
				return 0, err
			}
		}
	}
	return k, nil
}

// probe fetches key's index matches, applies the residual filters to each,
// and keeps the survivors back to back in mvals.
func (n *indexNLJoinIter) probe(key expr.Value) error {
	n.mvals = n.mvals[:0]
	n.matches, n.pos = 0, 0
	if key.Kind != expr.TInt { // NULL or non-int keys match nothing
		return nil
	}
	w := len(n.tab.Columns)
	for _, tid := range n.tree.Probe(key.I) {
		start := len(n.mvals)
		n.mvals = slices.Grow(n.mvals, w)[:start+w]
		n.irow = n.mvals[start : start+w : start+w]
		if err := n.heap.View(tid, n.decode); err != nil {
			return err
		}
		if n.baseRows != nil {
			*n.baseRows++
		}
		keep := true
		for ri, f := range n.residual {
			pass, err := f.holds(n.e, n.irow)
			if err != nil {
				return err
			}
			if !pass {
				keep = false
				break
			}
			if n.residualRows != nil {
				*n.residualRows[ri]++
			}
		}
		if keep {
			n.matches++
		} else {
			n.mvals = n.mvals[:start]
		}
	}
	return nil
}

func (n *indexNLJoinIter) Close() error { return n.outer.Close() }

// hashJoinIter builds an in-memory hash table on the inner input keyed by
// the join column, then streams the outer input probing it. Grace-hash
// partition traffic is charged synthetically per tuple on both sides so the
// measured cost matches the linear model's constants.
type hashJoinIter struct {
	e      *Env
	node   *plan.Join
	outer  Iterator
	inner  Iterator
	outIdx int
	table  joinTable
	outRow expr.Row
	key    expr.Value // outRow's join key
	cur    int32      // next matching build row for outRow, or -1
	count  int
	// current outer batch, output row slab
	obuf  []expr.Row
	opos  int
	olen  int
	alloc rowAlloc
}

// joinTable is the hash join's build side: a flat chained hash table. The
// build appends rows to one slice; link then threads a chain per bucket
// through heads (one slot per bucket, a power of two at least twice the row
// count) and next (one slot per row), linking from the last row to the
// first so every chain lists its rows in arrival order. A probe therefore
// visits an outer key's matches in inner arrival order, and no key is ever
// encoded or copied: buckets come from keyHash, matches are confirmed by
// Value.Equal, which is kind-sensitive (I(1) never matches B(true)).
type joinTable struct {
	keyIdx int
	rows   []expr.Row
	heads  []int32 // first row of each bucket's chain, -1 when empty
	next   []int32 // the row after each row in its chain, -1 at the end
	mask   uint64
}

// link builds the chains over every appended row.
func (t *joinTable) link() {
	size := 1
	for size < 2*len(t.rows) {
		size <<= 1
	}
	t.mask = uint64(size - 1)
	t.heads = make([]int32, size)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.next = make([]int32, len(t.rows))
	for i := len(t.rows) - 1; i >= 0; i-- {
		b := keyHash(t.rows[i][t.keyIdx]) & t.mask
		t.next[i] = t.heads[b]
		t.heads[b] = int32(i)
	}
}

// probe returns the first build row whose key equals v, or -1.
func (t *joinTable) probe(v expr.Value) int32 {
	return t.seek(t.heads[keyHash(v)&t.mask], v)
}

// seek returns the first row at or after chain position i whose key equals
// v, or -1.
func (t *joinTable) seek(i int32, v expr.Value) int32 {
	for ; i >= 0; i = t.next[i] {
		if t.rows[i][t.keyIdx].Equal(v) {
			return i
		}
	}
	return -1
}

func newHashJoin(e *Env, j *plan.Join) (Iterator, error) {
	if j.Primary != nil && j.Primary.IsExpensive() {
		return nil, fmt.Errorf("exec: hash join cannot use an expensive primary predicate")
	}
	outer, err := Build(e, j.Outer)
	if err != nil {
		return nil, err
	}
	inner, err := Build(e, j.Inner)
	if err != nil {
		return nil, err
	}
	oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{e: e, node: j, outer: outer, inner: inner, outIdx: oi,
		table: joinTable{keyIdx: ii}, cur: -1}, nil
}

func (h *hashJoinIter) Open() error {
	if err := h.inner.Open(); err != nil {
		return err
	}
	if err := h.build(); err != nil {
		return err
	}
	h.table.link()
	if err := h.inner.Close(); err != nil {
		return err
	}
	return h.outer.Open()
}

// build drains the inner input into the table.
func (h *hashJoinIter) build() error {
	buf := getRowBuf(h.e.batchSize())
	defer putRowBuf(buf)
	for {
		m, err := h.inner.NextBatch(buf)
		if err != nil {
			return err
		}
		if m == 0 {
			return nil
		}
		for _, row := range buf[:m] {
			if err := h.add(row); err != nil {
				return err
			}
		}
	}
}

// add charges one build tuple's spill and appends it to the table unless
// its key is NULL (NULL never equals anything).
func (h *hashJoinIter) add(row expr.Row) error {
	h.e.ChargeSpillTuple()
	if row[h.table.keyIdx].IsNull() {
		return nil
	}
	h.table.rows = append(h.table.rows, row)
	h.count++
	if h.count%1024 == 0 {
		return h.e.checkAbort()
	}
	return nil
}

// probeOuter charges one probe tuple's spill, ticks the budget cadence, and
// positions cur at row's first match (-1 for a NULL key).
func (h *hashJoinIter) probeOuter(row expr.Row) error {
	h.e.ChargeSpillTuple()
	h.outRow, h.key = row, row[h.outIdx]
	if h.key.IsNull() {
		h.cur = -1
	} else {
		h.cur = h.table.probe(h.key)
	}
	h.count++
	if h.count%1024 == 0 {
		return h.e.checkAbort()
	}
	return nil
}

// match returns the current match and advances cur along the chain.
func (h *hashJoinIter) match() expr.Row {
	irow := h.table.rows[h.cur]
	h.cur = h.table.seek(h.table.next[h.cur], h.key)
	return irow
}

// NextBatch probes the hash table with batches of streamWidth outer rows;
// output rows are carved from a value slab instead of one Concat
// allocation per match. Spill charges, probe order, and budget cadence do
// not depend on the width.
func (h *hashJoinIter) NextBatch(dst []expr.Row) (int, error) {
	if cap(h.obuf) < h.e.batchSize() {
		h.obuf = make([]expr.Row, h.e.batchSize())
	}
	ow := h.e.streamWidth(len(dst))
	n := 0
	for n < len(dst) {
		if h.cur >= 0 {
			irow := h.match()
			out := h.alloc.next(len(h.outRow) + len(irow))
			copy(out, h.outRow)
			copy(out[len(h.outRow):], irow)
			dst[n] = out
			n++
			continue
		}
		if h.opos >= h.olen {
			m, err := h.outer.NextBatch(h.obuf[:ow])
			if err != nil {
				return 0, err
			}
			if m == 0 {
				break
			}
			h.olen, h.opos = m, 0
		}
		row := h.obuf[h.opos]
		h.opos++
		if err := h.probeOuter(row); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (h *hashJoinIter) Close() error {
	return errors.Join(h.outer.Close(), h.inner.Close())
}

// mergeJoinIter materializes both inputs, sorts whichever sides the plan
// marks unsorted (charging external-sort spill), and merges equal-key
// groups.
type mergeJoinIter struct {
	e      *Env
	node   *plan.Join
	outIdx int
	inIdx  int
	orows  []expr.Row
	irows  []expr.Row
	oi, ii int
	group  []expr.Row // inner group matching current outer key
	gpos   int
	opened bool
	alloc  rowAlloc
}

func newMergeJoin(e *Env, j *plan.Join) (Iterator, error) {
	if j.Primary != nil && j.Primary.IsExpensive() {
		return nil, fmt.Errorf("exec: merge join cannot use an expensive primary predicate")
	}
	oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
	if err != nil {
		return nil, err
	}
	return &mergeJoinIter{e: e, node: j, outIdx: oi, inIdx: ii}, nil
}

func drain(e *Env, n plan.Node) ([]expr.Row, error) {
	it, err := Build(e, n)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		return nil, errors.Join(err, it.Close())
	}
	var rows []expr.Row
	buf := getRowBuf(e.batchSize())
	defer putRowBuf(buf)
	for {
		m, err := it.NextBatch(buf)
		if err != nil {
			return nil, errors.Join(err, it.Close())
		}
		if m == 0 {
			return rows, it.Close()
		}
		rows = append(rows, buf[:m]...)
	}
}

func (m *mergeJoinIter) Open() error {
	var err error
	if m.orows, err = drain(m.e, m.node.Outer); err != nil {
		return err
	}
	if m.irows, err = drain(m.e, m.node.Inner); err != nil {
		return err
	}
	sortSide := func(rows []expr.Row, idx int) {
		m.e.ChargeSynthetic(float64(len(rows)) * cost.SortSpillPerTuple)
		sortByKey(rows, idx)
	}
	if m.node.SortOuter {
		sortSide(m.orows, m.outIdx)
	}
	if m.node.SortInner {
		sortSide(m.irows, m.inIdx)
	}
	m.opened = true
	return m.e.checkAbort()
}

// sortByKey sorts rows by column idx, keeping equal keys in their original
// order. Breaking ties by original position makes the order total, so one
// O(n log n) pattern-defeating quicksort over a permutation of 4-byte row
// positions yields exactly the stable order; the permutation is then
// applied in place.
func sortByKey(rows []expr.Row, idx int) {
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := rows[a][idx].Compare(rows[b][idx]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Slot i takes the row at perm[i]. Walk each cycle of the permutation
	// once, marking a filled slot by setting perm[slot] = slot.
	for i := range rows {
		if perm[i] == int32(i) {
			continue
		}
		first, j := rows[i], i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				rows[j] = first
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
}

// NextBatch emits the current outer row's pairings with its inner group
// into slab rows, then advances the merge. Output order and the once-per-
// group budget check do not depend on the width.
func (m *mergeJoinIter) NextBatch(dst []expr.Row) (int, error) {
	if !m.opened {
		return 0, fmt.Errorf("exec: NextBatch before Open on MergeJoin")
	}
	n := 0
	for n < len(dst) {
		if m.gpos < len(m.group) {
			orow, irow := m.orows[m.oi], m.group[m.gpos]
			out := m.alloc.next(len(orow) + len(irow))
			copy(out, orow)
			copy(out[len(orow):], irow)
			dst[n] = out
			n++
			m.gpos++
			continue
		}
		// Group finished: advance outer; if its key matches the previous
		// group's key, reuse the group.
		if len(m.group) > 0 {
			prevKey := m.group[0][m.inIdx]
			m.oi++
			if m.oi < len(m.orows) && !m.orows[m.oi][m.outIdx].IsNull() &&
				m.orows[m.oi][m.outIdx].Equal(prevKey) {
				m.gpos = 0
				continue
			}
			m.group, m.gpos = nil, 0
		}
		if m.oi >= len(m.orows) {
			return n, nil
		}
		okey := m.orows[m.oi][m.outIdx]
		if okey.IsNull() {
			m.oi++
			continue
		}
		// Advance inner to the first key >= okey.
		for m.ii < len(m.irows) && (m.irows[m.ii][m.inIdx].IsNull() || m.irows[m.ii][m.inIdx].Compare(okey) < 0) {
			m.ii++
		}
		if m.ii >= len(m.irows) {
			return n, nil
		}
		if m.irows[m.ii][m.inIdx].Compare(okey) > 0 {
			m.oi++
			continue
		}
		// Collect the group of equal inner keys.
		start := m.ii
		for m.ii < len(m.irows) && m.irows[m.ii][m.inIdx].Equal(okey) {
			m.ii++
		}
		m.group = m.irows[start:m.ii]
		m.gpos = 0
		// The next outer with the same key must see this group again.
		m.ii = start
		// Advance past the group only when the outer key changes; handled by
		// the reuse branch above. To avoid rescanning forever, remember that
		// groups are re-found by key comparison: reset ii to start is safe
		// because the outer only moves forward.
		if err := m.e.checkAbort(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (m *mergeJoinIter) Close() error { return nil }
