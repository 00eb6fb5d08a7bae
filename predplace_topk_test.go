package predplace_test

// Top-k-aware execution tests: TopK on must return byte-identical rows to
// the facade sort at a charged cost no higher than the baseline, across
// placement algorithms × batch width × predicate transfer;
// injected read faults mid-heap-fill must abort cleanly with nothing pinned
// and nothing charged for the failed I/O.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

// topkRows renders a result's rows in delivered order (via orderedRows in
// batch_test.go). ORDER BY output is deterministic — equal keys tie-break on
// the full projected row in every mode — so tests compare the exact
// sequence, not a canonicalized multiset.
func topkRows(res *predplace.Result) string {
	return strings.Join(orderedRows(res), "\n")
}

var topkAgreementQueries = []string{
	// Bounded-heap path: the ORDER BY key (ua1) is unique but unindexed.
	"SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT 7",
	// Ordered-scan path: a1 is unique and indexed, so the plan becomes an
	// early-terminating Limit over an index-order scan.
	"SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10",
	// Descending ORDER BY always takes the heap (B-trees iterate ascending),
	// with equal keys broken by the projected row.
	"SELECT t1.u10, t1.a1 FROM t1 WHERE t1.u10 < 5 ORDER BY t1.u10 DESC LIMIT 9",
	// Joins always take the heap; the transfer leg prunes both scans first.
	"SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20) ORDER BY t1.ua1 LIMIT 5",
}

// TestRandomizedTopKAgreement: for every query and every configuration in
// PushDown/Migration × Transfer {off,on} × BatchSize {1,256}, the TopK-on run
// must deliver exactly the TopK-off rows and charge no more than the TopK-off
// baseline (strictly less on the ordered-scan path; identical on the heap
// path, which wraps the same plan).
func TestRandomizedTopKAgreement(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		db.SetTopK(false)
		db.SetTransfer(false)
		db.SetBatchSize(0)
	}()
	for _, sql := range topkAgreementQueries {
		for _, algo := range []predplace.Algorithm{predplace.PushDown, predplace.Migration} {
			for _, transfer := range []bool{false, true} {
				for _, bs := range []int{1, 256} {
					db.SetTransfer(transfer)
					db.SetBatchSize(bs)
					db.SetTopK(false)
					off, err := db.Query(sql, algo)
					if err != nil {
						t.Fatalf("%s %v transfer=%v BS=%d topk off: %v", sql, algo, transfer, bs, err)
					}
					db.SetTopK(true)
					on, err := db.Query(sql, algo)
					if err != nil {
						t.Fatalf("%s %v transfer=%v BS=%d topk on: %v", sql, algo, transfer, bs, err)
					}
					if got, want := topkRows(on), topkRows(off); got != want {
						t.Fatalf("%s %v transfer=%v BS=%d: rows diverge\ntopk on:\n%s\ntopk off:\n%s",
							sql, algo, transfer, bs, got, want)
					}
					if onC, offC := on.Stats.Charged(), off.Stats.Charged(); onC > offC+1e-6 {
						t.Fatalf("%s %v transfer=%v BS=%d: topk on charged %v > baseline %v",
							sql, algo, transfer, bs, onC, offC)
					}
					if len(on.Rows) != len(off.Rows) {
						t.Fatalf("%s %v: row counts diverge: %d vs %d", sql, algo, len(on.Rows), len(off.Rows))
					}
				}
			}
		}
	}
}

// TestTopKDefaultOffByteIdentical: a database that toggled TopK on and back
// off must plan and execute exactly like one that never touched the knob —
// rows, charged cost, and EXPLAIN output all byte-identical.
func TestTopKDefaultOffByteIdentical(t *testing.T) {
	fresh, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	toggled, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	toggled.SetTopK(true)
	toggled.SetTopK(false)
	sql := "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10"
	a, err := fresh.Query(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	b, err := toggled.Query(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if topkRows(a) != topkRows(b) {
		t.Fatal("rows differ after toggling TopK off")
	}
	if a.Stats.Charged() != b.Stats.Charged() {
		t.Fatalf("charged differs after toggling TopK off: %v vs %v", a.Stats.Charged(), b.Stats.Charged())
	}
	if a.Plan != b.Plan {
		t.Fatalf("plan differs after toggling TopK off:\n%s\nvs\n%s", a.Plan, b.Plan)
	}
	if strings.Contains(a.Plan, "TopK") || strings.Contains(a.Plan, "Limit") {
		t.Fatalf("TopK-off plan contains a top-k node:\n%s", a.Plan)
	}
}

// TestFacadeOrderByMatchesStableSort: with TopK off the facade sorts the
// whole result. Over heavy ties on the ORDER BY key, and with duplicate
// projected rows, its rows must equal a stable sort of the unordered result
// under the key-then-full-row comparator, ascending and descending.
func TestFacadeOrderByMatchesStableSort(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sel  string
		key  int // ORDER BY column's position in the select list
		desc bool
		k    int // LIMIT, or -1 for none
	}{
		{"SELECT t1.u10, t1.u100 FROM t1 WHERE t1.u20 < 15", 0, false, 60},
		{"SELECT t1.u10, t1.u100 FROM t1 WHERE t1.u20 < 15", 0, true, 60},
		{"SELECT t1.u100, t1.u10 FROM t1", 1, true, -1},
		{"SELECT * FROM t1", 4, false, 25},
	} {
		base, err := db.Query(c.sel, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		ref := base.Rows
		sort.SliceStable(ref, func(a, b int) bool {
			ra, rb := ref[a], ref[b]
			if x := ra[c.key].Compare(rb[c.key]); x != 0 {
				return (x < 0) != c.desc
			}
			for i := range ra {
				if x := ra[i].Compare(rb[i]); x != 0 {
					return x < 0
				}
			}
			return false
		})
		sql := c.sel + " ORDER BY t1.u10"
		if c.desc {
			sql += " DESC"
		}
		if c.k >= 0 {
			sql += fmt.Sprintf(" LIMIT %d", c.k)
			ref = ref[:c.k]
		}
		res, err := db.Query(sql, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		base.Rows = ref
		if got, want := topkRows(res), topkRows(base); got != want {
			t.Fatalf("%s: rows differ from the stable-sort reference\ngot:\n%s\nwant:\n%s", sql, got, want)
		}
	}
}

// TestTopKOrderedIndexPlan pins the acceptance plan shape: with TopK on, an
// ORDER BY on the unique indexed key plus LIMIT plans an early-terminating
// Limit over an index-order scan — no sort anywhere — and EXPLAIN ANALYZE
// marks the short-circuit; the heap path renders its TopK root with heap
// counters.
func TestTopKOrderedIndexPlan(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1}, TopK: true})
	if err != nil {
		t.Fatal(err)
	}
	ordered := "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10"
	plan, err := db.Explain(ordered, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Limit 10 (index order t1.a1)") || !strings.Contains(plan, "IndexScan t1.a1") {
		t.Fatalf("ordered query did not plan an index-order Limit:\n%s", plan)
	}
	if strings.Contains(plan, "TopK") {
		t.Fatalf("ordered query should not need the heap:\n%s", plan)
	}
	res, err := db.Query("EXPLAIN ANALYZE "+ordered, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "short-circuit") {
		t.Fatalf("EXPLAIN ANALYZE missing the Limit short-circuit marker:\n%s", res.Plan)
	}

	heap := "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT 10"
	res, err = db.Query("EXPLAIN ANALYZE "+heap, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "TopK 10 by t1.ua1") || !strings.Contains(res.Plan, "heap(pushed=") {
		t.Fatalf("heap query missing TopK root or heap counters:\n%s", res.Plan)
	}
}

// TestFaultTopKMidFill walks an injected read fault through every page read
// of both top-k paths — the bounded heap mid-fill and the early-terminating
// ordered scan. Every faulted run must return an error wrapping the
// injection or rows identical to the fault-free baseline at baseline-exact
// charged cost (failed I/O is never charged), and teardown must leave zero
// pinned frames with the goroutine baseline restored.
func TestFaultTopKMidFill(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1}, TopK: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM t1 WHERE costly10(t1.u10) ORDER BY t1.ua1 LIMIT 5", // heap
		"SELECT * FROM t1 WHERE costly10(t1.u10) ORDER BY t1.a1 LIMIT 5",  // ordered
	} {
		// Cold pool before every run: faults fire on physical reads, and
		// query entry no longer flushes the shared pool.
		if err := db.EvictPool(); err != nil {
			t.Fatal(err)
		}
		db.SetFaults(&predplace.FaultConfig{}) // count-only: no injection
		base, err := db.Query(sql, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		reads, _, _ := db.FaultCounts()
		db.SetFaults(nil)
		if reads == 0 {
			t.Fatal("no page reads observed")
		}
		baseRows := topkRows(base)
		baseCharged := base.Stats.Charged()

		for n := int64(1); n <= reads; n++ {
			audit := harness.StartLeakAudit()
			if err := db.EvictPool(); err != nil {
				t.Fatal(err)
			}
			db.SetFaults(&predplace.FaultConfig{FailReadN: n})
			res, err := db.Query(sql, predplace.Migration)
			db.SetFaults(nil)
			if err != nil && !errors.Is(err, predplace.ErrInjectedFault) {
				t.Fatalf("%s failN=%d: error does not wrap the injected fault: %v", sql, n, err)
			}
			if err == nil {
				if got := topkRows(res); got != baseRows {
					t.Fatalf("%s failN=%d: clean run rows differ from baseline", sql, n)
				}
				if c := res.Stats.Charged(); c > baseCharged+1e-6 || c < baseCharged-1e-6 {
					t.Fatalf("%s failN=%d: charged %v, baseline %v", sql, n, c, baseCharged)
				}
			}
			if err := audit.Verify(db); err != nil {
				t.Fatalf("%s failN=%d: %v", sql, n, err)
			}
		}
	}
}
