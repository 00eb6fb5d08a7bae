package exec

// The top-k operators. topkIter is a bounded heap: it consumes its whole
// input but holds at most k rows, then emits them in (key, tie) order —
// n·log k comparisons instead of the facade's full n·log n sort, and only k
// rows ever flow upstream. limitIter is pure early termination: it stops
// pulling from its child after k rows, so the subtree below never produces
// — or pays for — the rows the limit cuts off. Neither operator charges
// anything itself (the heap lives in memory, exactly like the facade sort
// it replaces); their effect on charged cost is entirely in what the
// subtree below no longer does.

import (
	"fmt"

	"predplace/internal/expr"
	"predplace/internal/plan"
)

// topkIter implements plan.TopK. The heap is a worst-at-root max-heap over
// the output ordering (heap[0] is the current k-th row): a new row is
// admitted only when it beats the current boundary, displacing it. The
// first NextBatch call drains the input into the heap; emission is a copy
// out of the sorted pooled storage — it allocates nothing.
type topkIter struct {
	e      *Env
	node   *plan.TopK
	in     Iterator
	keyIdx int
	tieIdx []int
	// heap is pooled storage holding ≤ k rows; after fill it is heapsorted
	// into output order and emitted from pos.
	heap   []expr.Row
	buf    []expr.Row // pooled input batch buffer
	pos    int
	filled bool
	count  int
	tc     *opCounters // nil unless profiling
}

func newTopK(e *Env, t *plan.TopK) (Iterator, error) {
	in, err := Build(e, t.Input)
	if err != nil {
		return nil, err
	}
	keyIdx := plan.ColIndex(t.Input, t.Key)
	if keyIdx < 0 {
		return nil, fmt.Errorf("exec: TopK key %s not in input columns", t.Key)
	}
	tieIdx := make([]int, 0, len(t.Tie))
	for _, ref := range t.Tie {
		i := plan.ColIndex(t.Input, ref)
		if i < 0 {
			return nil, fmt.Errorf("exec: TopK tie column %s not in input columns", ref)
		}
		tieIdx = append(tieIdx, i)
	}
	it := &topkIter{e: e, node: t, in: in, keyIdx: keyIdx, tieIdx: tieIdx}
	if e.prof != nil {
		it.tc = e.nodeProf(t)
	}
	return it, nil
}

// less is the output ordering: key first (flipped under Desc), then the tie
// columns ascending regardless of direction — the same comparator the
// facade sort uses, so TopK-on results are byte-identical to TopK-off
// whatever order equal keys arrive in (rows equal under this comparator are
// identical after projection).
func (t *topkIter) less(a, b expr.Row) bool {
	c := a[t.keyIdx].Compare(b[t.keyIdx])
	if c != 0 {
		if t.node.Desc {
			return c > 0
		}
		return c < 0
	}
	for _, i := range t.tieIdx {
		if cc := a[i].Compare(b[i]); cc != 0 {
			return cc < 0
		}
	}
	return false
}

// siftUp restores the worst-at-root property after an append at i.
func (t *topkIter) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(t.heap[p], t.heap[i]) {
			return
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

// siftDown restores the property below i over the first n entries.
func (t *topkIter) siftDown(i, n int) {
	for {
		worst := i
		if l := 2*i + 1; l < n && t.less(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.less(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// offer admits a row into the bounded heap: appended while under k, and
// past k only by displacing the current boundary row when it beats it.
func (t *topkIter) offer(row expr.Row) {
	if len(t.heap) < int(t.node.K) {
		t.heap = append(t.heap, row)
		t.siftUp(len(t.heap) - 1)
		if t.tc != nil {
			t.tc.heapPushed.Add(1)
		}
		return
	}
	if !t.less(row, t.heap[0]) {
		return
	}
	t.heap[0] = row
	t.siftDown(0, len(t.heap))
	if t.tc != nil {
		t.tc.heapPushed.Add(1)
		t.tc.heapEvicted.Add(1)
	}
}

// fill drains the input into the heap, checking the budget once per input
// batch, then heapsorts the survivors in place into output order. Runs
// once; NextBatch afterwards only copies out.
func (t *topkIter) fill() error {
	if t.filled {
		return nil
	}
	t.filled = true
	if t.heap == nil {
		t.heap = getRowBuf(min(int(t.node.K), DefaultBatchSize))[:0]
	}
	if t.buf == nil {
		t.buf = getRowBuf(t.e.batchSize())
	}
	for {
		n, err := t.in.NextBatch(t.buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		t.count += n
		if err := t.e.checkAbort(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			t.offer(t.buf[i])
		}
	}
	// In-place heapsort: repeatedly swap the worst (root) to the end. The
	// worst-at-root heap leaves the array ascending in output order.
	for n := len(t.heap); n > 1; n-- {
		t.heap[0], t.heap[n-1] = t.heap[n-1], t.heap[0]
		t.siftDown(0, n-1)
	}
	return nil
}

func (t *topkIter) Open() error {
	t.filled = false
	t.pos, t.count = 0, 0
	if t.heap != nil {
		t.heap = t.heap[:0]
	}
	return t.in.Open()
}

// NextBatch copies the next run of sorted survivors into dst — no
// allocation, no comparison; all the work happened in fill.
func (t *topkIter) NextBatch(dst []expr.Row) (int, error) {
	if err := t.fill(); err != nil {
		return 0, err
	}
	n := copy(dst, t.heap[t.pos:])
	t.pos += n
	return n, nil
}

func (t *topkIter) Close() error {
	if t.buf != nil {
		putRowBuf(t.buf)
		t.buf = nil
	}
	if t.heap != nil {
		putRowBuf(t.heap)
		t.heap = nil
	}
	return t.in.Close()
}

// limitIter implements plan.Limit: pass through k rows, then stop pulling.
// For an ordered limit the child chain preserves the index scan's ascending
// key order up to the root, so the k rows delivered are exactly the ORDER
// BY's first k.
type limitIter struct {
	in   Iterator
	k    int64
	seen int64
	cut  bool
	tc   *opCounters // nil unless profiling
}

func newLimit(e *Env, l *plan.Limit) (Iterator, error) {
	in, err := Build(e, l.Input)
	if err != nil {
		return nil, err
	}
	it := &limitIter{in: in, k: l.K}
	if e.prof != nil {
		it.tc = e.nodeProf(l)
	}
	return it, nil
}

func (l *limitIter) Open() error {
	l.seen, l.cut = 0, false
	return l.in.Open()
}

// shortCircuit records (once) that the limit cut its child off early.
func (l *limitIter) shortCircuit() {
	if l.tc != nil && !l.cut {
		l.tc.shortCircuit.Add(1)
	}
	l.cut = true
}

// NextBatch clamps the requested batch to the rows still owed, so the child
// never overproduces past the limit by more than the last partial batch.
func (l *limitIter) NextBatch(dst []expr.Row) (int, error) {
	rem := l.k - l.seen
	if rem <= 0 {
		l.shortCircuit()
		return 0, nil
	}
	want := int64(len(dst))
	if want > rem {
		want = rem
	}
	n, err := l.in.NextBatch(dst[:want])
	if err != nil {
		return 0, err
	}
	l.seen += int64(n)
	return n, nil
}

func (l *limitIter) Close() error { return l.in.Close() }
