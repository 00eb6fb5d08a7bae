package predplace_test

// Randomized batch-execution invariant tests: for random queries, plans,
// and batch widths, execution at any width must be indistinguishable from
// width 1 — identical rows (same order for serial
// execution), identical charged cost, and with caching on identical
// function-invocation counts (the batched predicate-cache protocol is
// as-if-sequential). These run under -race in check.sh, so they also vet
// the pooled-buffer plumbing for data races.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predplace"
)

// orderedRows renders a result set order-sensitively (the executor is
// deterministic, so batch width must not change row order).
func orderedRows(res *predplace.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

func TestRandomizedBatchAgreement(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchAgreement(t, db)
}

// poolPressurePages is the buffer-pool size of the pool-pressure run: far
// below the data size (tables 1-3 at scale 0.01 span 9 pages). It is the
// smallest pool that runs every plan shape: a 1-page pool cannot run a
// nested-loop join, whose outer page stays pinned while the inner is read.
const poolPressurePages = 2

// TestRandomizedBatchAgreementPoolPressure repeats the agreement check on a
// handle whose buffer pool is far smaller than the data, so nested-loop
// rescans and multi-table plans evict each other's pages mid-query. Charged
// cost comes from the per-query I/O tracker's simulated LRU, which is where
// executor-mode differences in page access order would show.
func TestRandomizedBatchAgreementPoolPressure(t *testing.T) {
	db, err := predplace.Open(predplace.Config{
		Scale: 0.01, Tables: []int{1, 2, 3}, PoolPages: poolPressurePages,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchAgreement(t, db)
}

// checkBatchAgreement runs 12 random queries on db at width 1 and at a
// random batch width, requiring identical rows in identical order, identical
// charged cost, and identical invocation counts.
func checkBatchAgreement(t *testing.T, db *predplace.DB) {
	rng := rand.New(rand.NewSource(20260806))
	algos := predplace.Algorithms()
	widths := []int{0, 2, 3, 7, 64, predplace.DefaultBatchSize + 1}
	for trial := 0; trial < 12; trial++ {
		sql := genQuery(rng)
		algo := algos[rng.Intn(len(algos))]
		caching := trial%2 == 0
		width := widths[rng.Intn(len(widths))]
		t.Run(fmt.Sprintf("q%02d", trial), func(t *testing.T) {
			db.SetCaching(caching)

			db.SetBatchSize(1)
			tuple, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("tuple %v on %q: %v", algo, sql, err)
			}

			db.SetBatchSize(width)
			batch, err := db.Query(sql, algo)
			db.SetBatchSize(0)
			if err != nil {
				t.Fatalf("batch(%d) %v on %q: %v", width, algo, sql, err)
			}

			// Batched execution must reproduce the width-1 run exactly: rows
			// in the same order, same charged cost, same invocations.
			tupleRows, batchRows := orderedRows(tuple), orderedRows(batch)
			if len(tupleRows) != len(batchRows) {
				t.Fatalf("batch(%d) returned %d rows, tuple returned %d\nquery: %s",
					width, len(batchRows), len(tupleRows), sql)
			}
			for i := range tupleRows {
				if tupleRows[i] != batchRows[i] {
					t.Fatalf("batch(%d) row %d differs from tuple run (caching=%v)\nquery: %s",
						width, i, caching, sql)
				}
			}
			if tc, bc := tuple.Stats.Charged(), batch.Stats.Charged(); tc != bc {
				t.Fatalf("batch(%d) charged %v, tuple charged %v (caching=%v)\nquery: %s",
					width, bc, tc, caching, sql)
			}
			for fn, tcalls := range tuple.Stats.Invocations {
				if bcalls := batch.Stats.Invocations[fn]; bcalls != tcalls {
					t.Fatalf("batch(%d) invoked %s %d times, tuple %d (caching=%v)\nquery: %s",
						width, fn, bcalls, tcalls, caching, sql)
				}
			}
		})
	}
}
