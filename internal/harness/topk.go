package harness

// The top-k benchmark: ORDER BY … LIMIT k queries run with top-k execution
// off (facade sort over the full result) and on (bounded-heap TopK or
// early-terminating index-order Limit), at width 1 and at the default batch
// width, over a k sweep. Top-k execution must never
// change the answer — every cell's on-rows must equal its off-rows in
// delivered order — and the flagship ordered-index query must cut the
// charged cost at least 2×: the point of the exercise is that the limit
// reaches the scan, not just the sort.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// topkQueries are the benchmark shapes. The flagship orders by the unique
// indexed key a1 — with TopK on, the plan is an early-terminating Limit over
// an index-order scan, so the expensive predicate runs only until k rows
// survive. The heap query orders by the unique unindexed key ua1, so the
// whole input is consumed through a k-bounded heap instead of a full sort.
var topkQueries = []struct {
	name string
	sql  string // %d is the LIMIT
	// flagship cells gate Pass on a ≥ 2× charged-cost reduction.
	flagship bool
}{
	{"ordered", "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT %d", true},
	{"heap", "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT %d", false},
}

// topkKs is the LIMIT sweep.
var topkKs = []int{1, 10, 100, 1000}

// TopKCell compares one executor mode's top-k-off and top-k-on runs of a
// query at one k.
type TopKCell struct {
	// Mode is "tuple" (BatchSize 1) or "batch" (default batch width).
	Mode string `json:"mode"`
	// OffMs and OnMs are best-of-iters wall times; Speedup is their ratio.
	OffMs   float64 `json:"off_ms"`
	OnMs    float64 `json:"on_ms"`
	Speedup float64 `json:"speedup"`
	// OffCharged and OnCharged are the deterministic charged costs;
	// CostRatio is off/on (> 1 means top-k execution did less work).
	OffCharged float64 `json:"off_charged"`
	OnCharged  float64 `json:"on_charged"`
	CostRatio  float64 `json:"cost_ratio"`
	// RowsEqual: the on-run delivered exactly the off-run's rows, in order
	// (ORDER BY output is deterministic, ties included).
	RowsEqual bool `json:"rows_equal"`
}

// TopKQueryResult aggregates one (query, k)'s cells.
type TopKQueryResult struct {
	Query string     `json:"query"`
	K     int        `json:"k"`
	Rows  int        `json:"rows"`
	Cells []TopKCell `json:"cells"`
}

// TopKBench is the full top-k-off-vs-on comparison.
type TopKBench struct {
	Scale   float64           `json:"scale"`
	Iters   int               `json:"iters"`
	Queries []TopKQueryResult `json:"queries"`
	// BestCostRatio is the largest off/on charged-cost ratio in any cell;
	// FlagshipRatio is the tuple-mode ratio of the ordered-index
	// query at k=10 (the acceptance headline).
	BestCostRatio float64 `json:"best_cost_ratio"`
	FlagshipRatio float64 `json:"flagship_ratio"`
	// Pass is true when every cell's rows matched and every flagship cell
	// cut the charged cost at least 2×.
	Pass bool `json:"pass"`
}

// RunTopKBench runs the ORDER BY/LIMIT queries with top-k execution off and
// on, at width 1 and at the default width, at k ∈ {1, 10, 100, 1000}
// (Migration plans, caching off), comparing delivered rows, wall time, and
// charged cost. Both top-k modes sort by the ORDER BY key with the full projected
// row as tie-break, so delivered order is deterministic and must match
// exactly.
func (h *Harness) RunTopKBench(iters int) (*TopKBench, error) {
	if iters < 1 {
		iters = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	defer func() {
		h.DB.SetTopK(false)
		h.DB.SetBatchSize(0)
	}()
	bench := &TopKBench{Scale: h.Scale, Iters: iters, Pass: true}
	modes := []struct {
		name  string
		batch int
	}{
		{"tuple", 1},
		{"batch", 0},
	}
	for _, q := range topkQueries {
		for _, k := range topkKs {
			sql := fmt.Sprintf(q.sql, k)
			qr := TopKQueryResult{Query: q.name, K: k}
			for _, m := range modes {
				h.DB.SetBatchSize(m.batch)
				h.DB.SetTopK(false)
				off, offMs, _, err := h.measure(sql, iters)
				if err != nil {
					return nil, fmt.Errorf("%s k=%d %s topk off: %w", q.name, k, m.name, err)
				}
				h.DB.SetTopK(true)
				on, onMs, _, err := h.measure(sql, iters)
				if err != nil {
					return nil, fmt.Errorf("%s k=%d %s topk on: %w", q.name, k, m.name, err)
				}
				cell := TopKCell{
					Mode:  m.name,
					OffMs: offMs, OnMs: onMs,
					OffCharged: off.Stats.Charged(), OnCharged: on.Stats.Charged(),
					RowsEqual: slices.Equal(exactRows(off), exactRows(on)),
				}
				if onMs > 0 {
					cell.Speedup = offMs / onMs
				}
				if cell.OnCharged > 0 {
					cell.CostRatio = cell.OffCharged / cell.OnCharged
				}
				if !cell.RowsEqual {
					bench.Pass = false
				}
				if q.flagship && k == 10 && cell.CostRatio < 2 {
					bench.Pass = false
				}
				if q.flagship && k == 10 && m.name == "tuple" {
					bench.FlagshipRatio = cell.CostRatio
				}
				if cell.CostRatio > bench.BestCostRatio {
					bench.BestCostRatio = cell.CostRatio
				}
				qr.Rows = len(off.Rows)
				qr.Cells = append(qr.Cells, cell)
			}
			bench.Queries = append(bench.Queries, qr)
		}
	}
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_topk.json).
func (b *TopKBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *TopKBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "top-k bench: scale=%.3g iters=%d (Migration, caching off)\n",
		b.Scale, b.Iters)
	fmt.Fprintf(&sb, "%-8s %5s %-6s %9s %9s %8s %11s %11s %7s %7s\n",
		"query", "k", "mode", "off-ms", "on-ms", "speedup", "off-cost", "on-cost", "ratio", "verdict")
	for _, q := range b.Queries {
		for _, c := range q.Cells {
			verdict := "OK"
			if !c.RowsEqual {
				verdict = "ROWS!"
			}
			fmt.Fprintf(&sb, "%-8s %5d %-6s %9.2f %9.2f %7.2fx %11.0f %11.0f %6.1fx %7s\n",
				q.Query, q.K, c.Mode, c.OffMs, c.OnMs, c.Speedup,
				c.OffCharged, c.OnCharged, c.CostRatio, verdict)
		}
	}
	if b.Pass {
		fmt.Fprintf(&sb, "PASS: top-k rows identical everywhere; flagship charged-cost reduction %.1fx (best %.1fx)\n",
			b.FlagshipRatio, b.BestCostRatio)
	} else {
		sb.WriteString("FAIL: top-k execution changed a result set or missed the 2x flagship reduction\n")
	}
	return sb.String()
}
