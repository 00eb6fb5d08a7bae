package harness

// The batch-execution benchmark: each benchmark query runs twice on the same
// database — at width 1 (BatchSize 1) and at the default width — comparing
// wall time, allocation counts, result sets, and charged cost. Both runs
// execute the same operators; with caching off the charged cost must match
// bit for bit (batching only amortizes per-row overheads; the paper's cost
// accounting is per-tuple), and the default-width run must reproduce the
// width-1 row order exactly, so the comparison doubles as a correctness
// gate in CI. The JSON keeps its tuple_* field names for the width-1 run.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"predplace"
)

// benchQueries is the figure-query workload shared by the batch and fault
// benchmarks.
var benchQueries = []struct {
	name string
	sql  string
}{
	{"query1", Query1},
	{"query2", Query2},
	{"query3", Query3},
	{"query4", Query4},
	{"query5", Query5},
}

// measure runs sql iters times under Predicate Migration, returning the
// last result, the best (minimum) wall time in ms, and the best (minimum)
// heap-allocation count of a single run.
func (h *Harness) measure(sql string, iters int) (*predplace.Result, float64, uint64, error) {
	var res *predplace.Result
	bestMs := math.MaxFloat64
	bestAllocs := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < iters; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := h.query(sql, predplace.Migration)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, 0, err
		}
		res = r
		if ms := float64(elapsed.Microseconds()) / 1000; ms < bestMs {
			bestMs = ms
		}
		if a := m1.Mallocs - m0.Mallocs; a < bestAllocs {
			bestAllocs = a
		}
	}
	return res, bestMs, bestAllocs, nil
}

// BatchQueryResult compares one query's width-1 and default-width runs.
type BatchQueryResult struct {
	Query        string  `json:"query"`
	TupleMs      float64 `json:"tuple_ms"`
	BatchMs      float64 `json:"batch_ms"`
	SpeedupBatch float64 `json:"speedup_batch"`
	TupleAllocs  uint64  `json:"tuple_allocs"`
	BatchAllocs  uint64  `json:"batch_allocs"`
	TupleCharged float64 `json:"tuple_charged"`
	Rows         int     `json:"rows"`
	// RowsEqual: both modes produced the same result multiset.
	RowsEqual bool `json:"rows_equal"`
	// OrderEqual: the default-width run reproduced the width-1 row order
	// exactly.
	OrderEqual bool `json:"order_equal"`
	// ChargedEqual: both modes charged exactly the same cost.
	ChargedEqual bool `json:"charged_equal"`
}

// BatchBench is the full tuple-vs-batch comparison over Queries 1–5.
type BatchBench struct {
	Scale     float64            `json:"scale"`
	BatchSize int                `json:"batch_size"`
	Iters     int                `json:"iters"`
	Queries   []BatchQueryResult `json:"queries"`
	// Pass is true when every query returned the same rows in the same
	// order and charged exactly the same cost in both modes.
	Pass bool `json:"pass"`
}

// RunBatchBench runs Queries 1–5 under Predicate Migration with caching
// off at two widths on the same database: 1 and the default BatchSize.
// Timings and allocation counts are best-of-iters.
func (h *Harness) RunBatchBench(iters int) (*BatchBench, error) {
	if iters < 1 {
		iters = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	defer h.DB.SetBatchSize(0)
	bench := &BatchBench{
		Scale: h.Scale, BatchSize: predplace.DefaultBatchSize, Iters: iters, Pass: true,
	}
	for _, q := range benchQueries {
		h.DB.SetBatchSize(1)
		tuple, tupleMs, tupleAllocs, err := h.measure(q.sql, iters)
		if err != nil {
			return nil, fmt.Errorf("%s tuple: %w", q.name, err)
		}

		h.DB.SetBatchSize(0)
		batch, batchMs, batchAllocs, err := h.measure(q.sql, iters)
		if err != nil {
			return nil, fmt.Errorf("%s batch: %w", q.name, err)
		}

		r := BatchQueryResult{
			Query:        q.name,
			TupleMs:      tupleMs,
			BatchMs:      batchMs,
			TupleAllocs:  tupleAllocs,
			BatchAllocs:  batchAllocs,
			TupleCharged: tuple.Stats.Charged(),
			Rows:         tuple.Stats.Rows,
			RowsEqual:    slices.Equal(canonicalRows(tuple), canonicalRows(batch)),
			OrderEqual:   slices.Equal(exactRows(tuple), exactRows(batch)),
			ChargedEqual: tuple.Stats.Charged() == batch.Stats.Charged(),
		}
		if batchMs > 0 {
			r.SpeedupBatch = tupleMs / batchMs
		}
		if !r.RowsEqual || !r.OrderEqual || !r.ChargedEqual {
			bench.Pass = false
		}
		bench.Queries = append(bench.Queries, r)
	}
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_batch.json).
func (b *BatchBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *BatchBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch execution bench: scale=%.3g iters=%d (Migration, caching off)\n",
		b.Scale, b.Iters)
	fmt.Fprintf(&sb, "%-8s %9s %9s %8s %14s %11s %11s %6s %8s\n",
		"query", "tuple-ms", "batch-ms", "batch-x", "charged",
		"tup-allocs", "bat-allocs", "rows", "verdict")
	for _, q := range b.Queries {
		verdict := "OK"
		switch {
		case !q.RowsEqual:
			verdict = "ROWS!"
		case !q.OrderEqual:
			verdict = "ORDER!"
		case !q.ChargedEqual:
			verdict = "COST!"
		}
		fmt.Fprintf(&sb, "%-8s %9.1f %9.1f %7.2fx %14.0f %11d %11d %6d %8s\n",
			q.Query, q.TupleMs, q.BatchMs, q.SpeedupBatch, q.TupleCharged,
			q.TupleAllocs, q.BatchAllocs, q.Rows, verdict)
	}
	if b.Pass {
		sb.WriteString("PASS: default-width results, row order, and charged costs match width 1 exactly\n")
	} else {
		sb.WriteString("FAIL: default-width execution diverged from width 1\n")
	}
	return sb.String()
}
