package harness

// The predicate-transfer benchmark: Queries 3–5 (the join queries whose
// tables prune each other through join-key filters) run with transfer off
// and on, at width 1 ("tuple" cells) and at the default batch width ("batch"
// cells), on the same database (Migration plans, caching off). Transfer must
// never change the answer — every cell's on-rows must equal its off-rows —
// and the width must never change the charged cost — the batch cell must
// charge exactly what the tuple cell charges, with transfer off and on. The report pairs wall time with charged cost, rows pruned, and the Bloom
// filters' estimated (and, from one profiled run, actual) false-positive
// rate, so a wall-clock win that the honest cost accounting does not
// support is visible as such.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"predplace"
)

// transferQueries are the benchmark's join queries: Query 3 (a10 join),
// Query 4 (three-way ua1 chain), Query 5 (four tables, two key classes).
var transferQueries = []struct {
	name string
	sql  string
}{
	{"query3", Query3},
	{"query4", Query4},
	{"query5", Query5},
}

// transferCanonRows canonicalizes a result set independent of both row and
// column order: transfer-adjusted cardinalities may legitimately change the
// join order (and with it the output column order, and the row order).
func transferCanonRows(res *predplace.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		sort.Strings(cells)
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}

// TransferCell compares one executor mode's transfer-off and transfer-on
// runs of a query.
type TransferCell struct {
	// Mode is "tuple" (BatchSize 1) or "batch" (default batch width).
	Mode string `json:"mode"`
	// OffMs and OnMs are best-of-iters wall times; Speedup is their ratio.
	OffMs   float64 `json:"off_ms"`
	OnMs    float64 `json:"on_ms"`
	Speedup float64 `json:"speedup"`
	// OffCharged and OnCharged are the deterministic charged costs. OnCharged
	// includes the prepass's build and probe charges — transfer is never free.
	OffCharged float64 `json:"off_charged"`
	OnCharged  float64 `json:"on_charged"`
	// RowsPruned counts main-scan rows the received filters rejected.
	RowsPruned int64 `json:"rows_pruned"`
	// RowsEqual: the on-run's result multiset equals the off-run's.
	RowsEqual bool `json:"rows_equal"`
	// ChargedEqual: OffCharged and OnCharged equal the query's tuple cell's.
	ChargedEqual bool `json:"charged_equal"`
}

// TransferQueryResult aggregates one query's cells plus its filter quality
// from a single profiled run.
type TransferQueryResult struct {
	Query string         `json:"query"`
	Rows  int            `json:"rows"`
	Cells []TransferCell `json:"cells"`
	// FPEst is the filters' analytic false-positive estimate and FPActual
	// the measured rate from one profiled run (-1 when no non-member was
	// probed).
	FPEst    float64 `json:"fp_rate_est"`
	FPActual float64 `json:"fp_rate_actual"`
}

// TransferBench is the full transfer-off-vs-on comparison over Queries 3–5.
type TransferBench struct {
	Scale   float64               `json:"scale"`
	Iters   int                   `json:"iters"`
	Queries []TransferQueryResult `json:"queries"`
	// BestSpeedup is the largest off/on wall-time ratio in any cell.
	BestSpeedup float64 `json:"best_speedup"`
	// Pass is true when every cell's transfer-on rows matched transfer-off
	// and every cell charged what its query's tuple cell charged.
	Pass bool `json:"pass"`
}

// RunTransferBench runs Queries 3–5 with predicate transfer off and on,
// at width 1 and at the default width (Migration plans, caching off), comparing
// result sets, wall time, and charged cost.
func (h *Harness) RunTransferBench(iters int) (*TransferBench, error) {
	if iters < 1 {
		iters = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	defer func() {
		h.DB.SetTransfer(false)
		h.DB.SetBatchSize(0)
	}()
	bench := &TransferBench{Scale: h.Scale, Iters: iters, Pass: true}
	modes := []struct {
		name  string
		batch int
	}{
		{"tuple", 1},
		{"batch", 0},
	}
	for _, q := range transferQueries {
		qr := TransferQueryResult{Query: q.name, FPEst: -1, FPActual: -1}
		for _, m := range modes {
			h.DB.SetBatchSize(m.batch)
			// Each measured run starts from a cold pool: the preceding
			// transfer-on run may have executed a different join order,
			// and its leftover pages would make this run's physical I/O
			// (and charged cost) depend on cell sequencing.
			h.DB.SetTransfer(false)
			if err := h.DB.EvictPool(); err != nil {
				return nil, err
			}
			off, offMs, _, err := h.measure(q.sql, iters)
			if err != nil {
				return nil, fmt.Errorf("%s %s transfer off: %w", q.name, m.name, err)
			}
			h.DB.SetTransfer(true)
			if err := h.DB.EvictPool(); err != nil {
				return nil, err
			}
			on, onMs, _, err := h.measure(q.sql, iters)
			if err != nil {
				return nil, fmt.Errorf("%s %s transfer on: %w", q.name, m.name, err)
			}
			cell := TransferCell{
				Mode:  m.name,
				OffMs: offMs, OnMs: onMs,
				OffCharged: off.Stats.Charged(), OnCharged: on.Stats.Charged(),
				RowsEqual: slices.Equal(transferCanonRows(off), transferCanonRows(on)),
			}
			cell.ChargedEqual = len(qr.Cells) == 0 ||
				cell.OffCharged == qr.Cells[0].OffCharged && cell.OnCharged == qr.Cells[0].OnCharged
			if onMs > 0 {
				cell.Speedup = offMs / onMs
			}
			if ts := on.Stats.Transfer; ts != nil {
				cell.RowsPruned = ts.Pruned
			}
			if !cell.RowsEqual || !cell.ChargedEqual {
				bench.Pass = false
			}
			if cell.Speedup > bench.BestSpeedup {
				bench.BestSpeedup = cell.Speedup
			}
			qr.Rows = off.Stats.Rows
			qr.Cells = append(qr.Cells, cell)
		}
		// One profiled batched run measures the filters' actual FP rate
		// (profiling tracks exact key sets; timing cells stay unprofiled).
		h.DB.SetBatchSize(0)
		h.DB.SetTransfer(true)
		h.DB.SetProfile(true)
		prof, err := h.query(q.sql, predplace.Migration)
		h.DB.SetProfile(false)
		if err != nil {
			return nil, fmt.Errorf("%s profiled transfer run: %w", q.name, err)
		}
		if ts := prof.Stats.Transfer; ts != nil {
			qr.FPEst, qr.FPActual = ts.FPEst, ts.FPActual
		}
		bench.Queries = append(bench.Queries, qr)
	}
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_transfer.json).
func (b *TransferBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *TransferBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "predicate transfer bench: scale=%.3g iters=%d (Migration, caching off)\n",
		b.Scale, b.Iters)
	fmt.Fprintf(&sb, "%-8s %-6s %9s %9s %8s %11s %11s %8s %7s\n",
		"query", "mode", "off-ms", "on-ms", "speedup", "off-cost", "on-cost", "pruned", "verdict")
	for _, q := range b.Queries {
		for _, c := range q.Cells {
			verdict := "OK"
			switch {
			case !c.RowsEqual:
				verdict = "ROWS!"
			case !c.ChargedEqual:
				verdict = "COST!"
			}
			fmt.Fprintf(&sb, "%-8s %-6s %9.1f %9.1f %7.2fx %11.0f %11.0f %8d %7s\n",
				q.Query, c.Mode, c.OffMs, c.OnMs, c.Speedup,
				c.OffCharged, c.OnCharged, c.RowsPruned, verdict)
		}
		if q.FPActual >= 0 {
			fmt.Fprintf(&sb, "%-8s filters: fp-actual=%.4f fp-est=%.4f rows=%d\n",
				q.Query, q.FPActual, q.FPEst, q.Rows)
		}
	}
	if b.Pass {
		fmt.Fprintf(&sb, "PASS: transfer-on results identical to transfer-off, charged costs identical tuple vs batch (best speedup %.2fx)\n",
			b.BestSpeedup)
	} else {
		sb.WriteString("FAIL: predicate transfer changed a result set, or batching changed a charged cost\n")
	}
	return sb.String()
}
