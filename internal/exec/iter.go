package exec

import (
	"fmt"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// Iterator is the Volcano operator interface, batch at a time: one
// contract, and every operator implements it natively.
//
// NextBatch fills dst with up to len(dst) rows and returns how many it
// produced; n == 0 with a nil error signals exhaustion, and an error
// implies n == 0. Implementations must not retain dst (or any reslice of
// it) across calls; the rows written into it belong to the caller. A width
// of 1 is the strictest batch-boundary case of the same code, not a
// different executor: rows, row order and charged cost are the same at
// every width. NextBatch before Open is an error.
type Iterator interface {
	// Open prepares the iterator for NextBatch calls.
	Open() error
	// NextBatch produces the next rows into dst; 0 signals exhaustion.
	NextBatch(dst []expr.Row) (int, error)
	// Close releases resources. Safe to call more than once.
	Close() error
}

// Build compiles a physical plan into an iterator tree. When the Env is
// tracing (Run always traces), every operator is wrapped with a per-node
// row counter so EXPLAIN ANALYZE can print actual cardinalities next to the
// optimizer's estimates. With profiling on the wrapper additionally measures
// wall time and attributes physical I/O per operator.
func Build(e *Env, n plan.Node) (Iterator, error) {
	it, err := build(e, n)
	if err != nil {
		return nil, err
	}
	if e.prof != nil {
		return &profIter{e: e, in: it, rows: e.nodeCounter(n), c: e.nodeProf(n)}, nil
	}
	if e.trace != nil {
		return &countIter{in: it, rows: e.nodeCounter(n)}, nil
	}
	return it, nil
}

func build(e *Env, n plan.Node) (Iterator, error) {
	switch t := n.(type) {
	case *plan.SeqScan:
		return newSeqScan(e, t)
	case *plan.IndexScan:
		return newIndexScan(e, t)
	case *plan.Filter:
		in, err := Build(e, t.Input)
		if err != nil {
			return nil, err
		}
		cp, err := compilePred(t.Pred, t.Input.Cols())
		if err != nil {
			return nil, err
		}
		if e.prof != nil {
			cp.prof = e.nodeProf(t)
		}
		return &filterIter{e: e, in: in, pred: cp}, nil
	case *plan.Join:
		return buildJoin(e, t)
	case *plan.TopK:
		return newTopK(e, t)
	case *plan.Limit:
		return newLimit(e, t)
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

// seqScanIter reads a heap file front to back. With predicate transfer on,
// received Bloom filters are probed on the raw record (decoding only the
// join-key columns) before the full-row decode, so pruned rows cost one
// partial decode and a probe — never a row allocation.
type seqScanIter struct {
	e      *Env
	tab    *catalog.Table
	it     *storage.HeapIter
	count  int
	alloc  rowAlloc
	memo   catalog.DecodeMemo
	probes []tableProbe
	tc     *opCounters
}

func newSeqScan(e *Env, s *plan.SeqScan) (Iterator, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tab.Heap == nil || tab.Codec == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", s.Table)
	}
	it := &seqScanIter{e: e, tab: tab}
	if e.prof != nil {
		it.tc = e.nodeProf(s)
	}
	return it, nil
}

func (s *seqScanIter) Open() error {
	s.it = s.e.heap(s.tab).Scan()
	s.probes = s.e.transferProbes(s.tab.Name)
	return nil
}

// NextBatch is the vectorized scan: records are referenced in place on the
// pinned page (no per-record copy) and decoded straight into slab-carved
// rows — one slab allocation per ~slabValues values instead of two
// allocations per row. Page I/O and scan order do not depend on the width;
// the budget check runs every 1024 records.
func (s *seqScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.it == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on SeqScan(%s)", s.tab.Name)
	}
	width := len(s.tab.Columns)
	n := 0
	for n < len(dst) {
		rec, _, ok, err := s.it.NextRef()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		s.count++
		if s.count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		if len(s.probes) > 0 {
			keep, err := s.e.probeRecord(s.tab.Codec, rec, s.probes, s.tc)
			if err != nil {
				return 0, err
			}
			if !keep {
				continue
			}
		}
		row := s.alloc.next(width)
		if err := s.tab.Codec.DecodeIntoMemo(rec, row, &s.memo); err != nil {
			return 0, err
		}
		dst[n] = row
		n++
	}
	return n, nil
}

func (s *seqScanIter) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// indexScanIter drives a B-tree equality or range scan, fetching matching
// heap tuples (random I/O per fetch). Equality probes materialize the
// (typically small) TID list the B-tree returns; range scans stream from
// the B-tree's leaf iterator lazily, so a wide range never materializes
// every TID up front. Close releases both.
type indexScanIter struct {
	e    *Env
	node *plan.IndexScan
	tab  *catalog.Table
	// heap is the table's heap file viewed through the query's I/O tracker,
	// resolved once at Open so per-tuple fetches don't re-wrap it.
	heap   *storage.HeapFile
	tids   []storage.TID
	pos    int
	rng    *btree.Iter
	count  int
	alloc  rowAlloc
	row    expr.Row // the row decode fills
	decode func(rec []byte) error
	memo   catalog.DecodeMemo
	probes []tableProbe
	tc     *opCounters
}

func newIndexScan(e *Env, s *plan.IndexScan) (Iterator, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if !tab.HasIndex(s.Col) {
		return nil, fmt.Errorf("exec: no index on %s.%s", s.Table, s.Col)
	}
	it := &indexScanIter{e: e, node: s, tab: tab}
	it.decode = func(rec []byte) error { return tab.Codec.DecodeIntoMemo(rec, it.row, &it.memo) }
	if e.prof != nil {
		it.tc = e.nodeProf(s)
	}
	return it, nil
}

func (s *indexScanIter) Open() error {
	tree := s.e.index(s.tab.Indexes[s.node.Col])
	s.heap = s.e.heap(s.tab)
	s.tids = nil
	s.pos, s.count = 0, 0
	s.rng = nil
	s.probes = s.e.transferProbes(s.tab.Name)
	switch {
	case s.node.Eq != nil:
		if s.node.Eq.Kind != expr.TInt {
			return fmt.Errorf("exec: index scan requires int key")
		}
		s.tids = tree.Probe(s.node.Eq.I)
	default:
		lo := int64(-1) << 62
		hi := int64(1)<<62 - 1
		if s.node.Lo != nil {
			lo = s.node.Lo.I
		}
		if s.node.Hi != nil {
			hi = s.node.Hi.I
		}
		s.rng = tree.Range(lo, hi)
	}
	return nil
}

// nextTID yields the next matching TID: from the probe result for equality
// scans, streamed from the B-tree leaf chain for range scans.
func (s *indexScanIter) nextTID() (storage.TID, bool) {
	if s.rng != nil {
		ent, ok := s.rng.Next()
		return ent.TID, ok
	}
	if s.pos >= len(s.tids) {
		return storage.TID{}, false
	}
	tid := s.tids[s.pos]
	s.pos++
	return tid, true
}

// NextBatch fetches matching heap tuples in batch, decoding each record in
// place under its page pin (HeapFile.View) into slab-carved rows instead
// of copying record bytes out. Fetch order and page I/O do not depend on
// the width; the budget check runs every 1024 fetches.
func (s *indexScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.heap == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on IndexScan(%s.%s)", s.tab.Name, s.node.Col)
	}
	width := len(s.tab.Columns)
	n := 0
	for n < len(dst) {
		tid, ok := s.nextTID()
		if !ok {
			break
		}
		s.count++
		if s.count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		row := s.alloc.next(width)
		s.row = row
		if err := s.heap.View(tid, s.decode); err != nil {
			return 0, err
		}
		// Index fetches already paid the random I/O, so received filters are
		// probed on the decoded row; pruning saves the operators above.
		if len(s.probes) > 0 && !s.e.probeRow(row, s.probes, s.tc) {
			continue
		}
		dst[n] = row
		n++
	}
	return n, nil
}

func (s *indexScanIter) Close() error {
	s.tids = nil
	s.rng = nil
	s.pos = 0
	return nil
}

// filterIter applies one predicate, dropping rows that fail it.
type filterIter struct {
	e     *Env
	in    Iterator
	pred  *compiledPred
	count int
	// batch state: input buffer, per-row verdicts, predicate scratch
	buf  []expr.Row
	keep []bool
	sc   predScratch
}

func (f *filterIter) Open() error { return f.in.Open() }

// NextBatch pulls a batch from the input and evaluates the predicate over
// the whole batch (holdsBatch), compacting survivors into dst. Looping
// until at least one row passes keeps the n==0-means-exhausted contract.
func (f *filterIter) NextBatch(dst []expr.Row) (int, error) {
	want := len(dst)
	if want == 0 {
		return 0, nil
	}
	if cap(f.buf) < want {
		f.buf = make([]expr.Row, want)
		f.keep = make([]bool, want)
	}
	for {
		m, err := f.in.NextBatch(f.buf[:want])
		if err != nil {
			return 0, err
		}
		if m == 0 {
			return 0, nil
		}
		if err := f.pred.holdsBatch(f.e, f.buf[:m], f.keep[:m], &f.count, &f.sc); err != nil {
			return 0, err
		}
		n := 0
		for i := 0; i < m; i++ {
			if f.keep[i] {
				dst[n] = f.buf[i]
				n++
			}
		}
		if n > 0 {
			return n, nil
		}
	}
}

func (f *filterIter) Close() error { return f.in.Close() }

// countIter counts the rows an operator produces (accumulating across
// nested-loop rescans) for EXPLAIN ANALYZE.
type countIter struct {
	in   Iterator
	rows *int64
}

func (c *countIter) Open() error { return c.in.Open() }

func (c *countIter) NextBatch(dst []expr.Row) (int, error) {
	n, err := c.in.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	*c.rows += int64(n)
	return n, nil
}

func (c *countIter) Close() error { return c.in.Close() }
