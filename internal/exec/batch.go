package exec

// The allocation discipline of the NextBatch contract (see Iterator):
// slab row allocation and pooled batch buffers make the hot paths
// allocation-free per tuple, and nextRow is the one-row adapter for the
// row-driven consumers. The paper's charged cost is per tuple, so a query's
// rows, row order and charged cost are the same at every batch width.

import (
	"sync"

	"predplace/internal/expr"
)

// DefaultBatchSize is the rows-per-NextBatch width used when Env.BatchSize
// is 0. Large enough to amortize per-batch costs (one slab allocation, one
// shard lock per predicate-cache shard), small enough that a batch of
// 100-byte tuples stays cache-warm.
const DefaultBatchSize = 256

// nextRow pulls one row from it through a width-1 NextBatch into the
// caller's one-slot buffer. The nested-loop and index-nested-loop joins
// drive their outer input with it, so the outer subtree advances one row
// per inner rescan or index probe and its page reads interleave with them
// row by row, whatever the query's batch width.
func nextRow(it Iterator, one *[1]expr.Row) (expr.Row, bool, error) {
	n, err := it.NextBatch(one[:])
	if err != nil || n == 0 {
		return nil, false, err
	}
	return one[0], true, nil
}

// A rowAlloc's first slab holds firstSlabValues values and each later one
// twice the last, up to slabValues: an operator that emits a handful of
// rows (a selective merge or index join) allocates little, and a long
// stream still amortizes one allocation over slabValues values.
const (
	firstSlabValues = 256
	slabValues      = 4096
)

// rowAlloc carves rows out of contiguous value slabs: one slab allocation
// amortizes across many rows instead of one allocation per row. Carved
// rows are never recycled — consumers may retain them freely (result sets,
// hash-join builds) — the slab simply becomes garbage when its rows do.
type rowAlloc struct {
	slab []expr.Value
	size int // values in the last slab allocated
}

// next returns a zeroed row of the given width carved from the current
// slab, starting a fresh slab when the current one is exhausted.
func (a *rowAlloc) next(width int) expr.Row {
	if len(a.slab) < width {
		a.size = min(max(2*a.size, firstSlabValues), slabValues)
		a.slab = make([]expr.Value, max(a.size, width))
	}
	row := expr.Row(a.slab[:width:width])
	a.slab = a.slab[width:]
	return row
}

// rowBufPool recycles the []expr.Row batch buffers operators shuttle rows
// through (pump buffers, top-k heaps, join input batches). Only the
// slice headers are pooled — rows themselves are owned by whoever received
// them — so a buffer may be recycled as soon as its rows have been handed
// off.
var rowBufPool = sync.Pool{
	New: func() interface{} {
		buf := make([]expr.Row, DefaultBatchSize)
		return &buf
	},
}

// getRowBuf returns a row buffer of length n from the pool.
func getRowBuf(n int) []expr.Row {
	buf := *rowBufPool.Get().(*[]expr.Row)
	if cap(buf) < n {
		buf = make([]expr.Row, n)
	}
	return buf[:n]
}

// putRowBuf recycles a buffer obtained from getRowBuf. The caller must not
// touch buf afterwards; rows it referenced stay valid (only the slice
// header is reused).
func putRowBuf(buf []expr.Row) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	rowBufPool.Put(&buf)
}
