package predplace_test

// Randomized cross-algorithm invariant tests — the mechanized version of
// the paper's own debugging methodology (§5): "bugs were exposed by running
// the same query under the various different optimization heuristics, and
// comparing the estimated costs and running times of the resulting plans."

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"predplace"
)

// genQuery builds a random conjunctive benchmark query: a join chain over
// ua1 (nested domains guarantee matches), optional extra a10 join predicate,
// and up to two expensive selections on random unindexed columns.
func genQuery(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "t3"}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	n := 2 + rng.Intn(2) // 2 or 3 tables
	tables = tables[:n]

	var preds []string
	for i := 1; i < n; i++ {
		preds = append(preds, fmt.Sprintf("%s.ua1 = %s.ua1", tables[i-1], tables[i]))
	}
	if n == 3 && rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("%s.a10 = %s.a10", tables[0], tables[2]))
	}
	costs := []string{"costly1", "costly10", "costly100"}
	cols := []string{"u10", "u20", "u100"}
	for k := rng.Intn(3); k > 0; k-- {
		preds = append(preds, fmt.Sprintf("%s(%s.%s)",
			costs[rng.Intn(len(costs))],
			tables[rng.Intn(n)],
			cols[rng.Intn(len(cols))]))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("%s.u10 < %d", tables[rng.Intn(n)], 1+rng.Intn(20)))
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s",
		strings.Join(tables, ", "), strings.Join(preds, " AND "))
}

// canonRows canonicalizes a result set independent of column order (join
// orders permute output columns).
func canonRows(res *predplace.Result) []string {
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

func TestRandomizedAlgorithmAgreement(t *testing.T) {
	// Hold every planned tree to plan.Validate's invariants (the facade and
	// executor check it when this is set) — malformed plans fail loudly here
	// instead of surfacing as subtly wrong rows.
	t.Setenv("PPLINT_VALIDATE", "1")
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260705))
	algos := predplace.Algorithms()
	for trial := 0; trial < 15; trial++ {
		sql := genQuery(rng)
		t.Run(fmt.Sprintf("q%02d", trial), func(t *testing.T) {
			results := make([]*predplace.Result, len(algos))
			for i, a := range algos {
				r, err := db.Query(sql, a)
				if err != nil {
					t.Fatalf("%v on %q: %v", a, sql, err)
				}
				results[i] = r
			}
			// Invariant 1: identical result multisets.
			ref := canonRows(results[0])
			for i := 1; i < len(results); i++ {
				got := canonRows(results[i])
				if len(got) != len(ref) {
					t.Fatalf("%v returned %d rows, %v returned %d\nquery: %s",
						algos[i], len(got), algos[0], len(ref), sql)
				}
				for k := range got {
					if got[k] != ref[k] {
						t.Fatalf("%v row %d differs from %v\nquery: %s", algos[i], k, algos[0], sql)
					}
				}
			}
			// Invariant 2: the exhaustive oracle's estimate never loses.
			var exEst, mgEst, prEst, pdEst, puEst float64
			for i, a := range algos {
				switch a {
				case predplace.Exhaustive:
					exEst = results[i].EstCost
				case predplace.Migration:
					mgEst = results[i].EstCost
				case predplace.PullRank:
					prEst = results[i].EstCost
				case predplace.PushDown:
					pdEst = results[i].EstCost
				case predplace.PullUp:
					puEst = results[i].EstCost
				}
			}
			for i, a := range algos {
				if a != predplace.ExhaustiveBushy && exEst > results[i].EstCost*1.0001 {
					t.Fatalf("Exhaustive estimate (%v) lost to %v (%v)\nquery: %s",
						exEst, a, results[i].EstCost, sql)
				}
			}
			// Invariant 3: Migration never estimated above the heuristics.
			for name, est := range map[string]float64{"PullRank": prEst, "PushDown": pdEst, "PullUp": puEst} {
				if mgEst > est*1.0001 {
					t.Fatalf("Migration (%v) lost to %s (%v)\nquery: %s", mgEst, name, est, sql)
				}
			}
		})
	}
}

// planShape reduces a rendered plan to its structure: per-node estimates and
// transfer annotations are stripped, so two plans compare equal exactly when
// they run the same operators in the same tree. Transfer-adjusted estimates
// may legitimately pick a different join order; the charged-cost
// monotonicity invariant below only applies when they did not.
func planShape(p string) string {
	lines := strings.Split(p, "\n")
	for i, ln := range lines {
		if k := strings.Index(ln, "  (card="); k >= 0 {
			ln = ln[:k]
		}
		if k := strings.Index(ln, " bloom("); k >= 0 {
			if end := strings.Index(ln[k:], ")"); end >= 0 {
				ln = ln[:k] + ln[k+end+1:]
			}
		}
		lines[i] = ln
	}
	return strings.Join(lines, "\n")
}

func TestRandomizedTransferAgreement(t *testing.T) {
	// Predicate transfer must never change the answer — only which rows the
	// join operators see, and the charged cost of getting them there. Sweep
	// random join queries with transfer off and on, caching off and on.
	t.Setenv("PPLINT_VALIDATE", "1")
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260807))
	algos := []predplace.Algorithm{predplace.PushDown, predplace.Migration, predplace.PullRank}
	for trial := 0; trial < 12; trial++ {
		sql := genQuery(rng)
		algo := algos[trial%len(algos)]
		for _, caching := range []bool{false, true} {
			db.SetCaching(caching)
			db.SetTransfer(false)
			off, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("transfer off, %v on %q: %v", algo, sql, err)
			}
			db.SetTransfer(true)
			on, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("transfer on, %v on %q: %v", algo, sql, err)
			}
			// Invariant 1: identical result multisets.
			refOff, refOn := canonRows(off), canonRows(on)
			if len(refOff) != len(refOn) {
				t.Fatalf("transfer changed row count %d -> %d (caching=%v)\nquery: %s",
					len(refOff), len(refOn), caching, sql)
			}
			for k := range refOff {
				if refOff[k] != refOn[k] {
					t.Fatalf("transfer changed row %d (caching=%v)\nquery: %s", k, caching, sql)
				}
			}
			// Invariant 2: transfer's overhead is exactly what it reports.
			// Net of the prepass and probe charges, the transfer run never
			// charges more than the plain one — pruning can only shrink the
			// work downstream. Only comparable when both runs executed the
			// same plan shape (transfer-adjusted estimates may reorder joins).
			if planShape(off.Plan) == planShape(on.Plan) {
				var overhead float64
				if ts := on.Stats.Transfer; ts != nil {
					overhead = ts.PrepassCharged + ts.ProbeCharge
				}
				if net := on.Stats.Charged() - overhead; net > off.Stats.Charged()+1e-6 {
					t.Fatalf("transfer net charged %v exceeds plain %v (overhead %v, caching=%v)\nquery: %s",
						net, off.Stats.Charged(), overhead, caching, sql)
				}
			}
		}
	}
	db.SetTransfer(false)
	db.SetCaching(false)
}

func TestEstimatesTrackMeasured(t *testing.T) {
	// The cost model and the executor charge in the same units; on the
	// benchmark queries the estimate should track the measurement closely
	// for Migration plans (the paper's §5.2 choices deliberately
	// under-estimate some join inputs, so the tolerance is loose).
	db, err := predplace.Open(predplace.Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)",
		"SELECT * FROM t10, t9 WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)",
		"SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)",
		"SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)",
	}
	for _, sql := range queries {
		res, err := db.Query(sql, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		charged := res.Stats.Charged()
		ratio := res.EstCost / charged
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("estimate %v vs charged %v (ratio %.2f) for %q",
				res.EstCost, charged, ratio, sql)
		}
	}
}

func TestRandomizedCachingNeverIncreasesInvocations(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		sql := genQuery(rng)
		db.SetCaching(false)
		off, err := db.Query(sql, predplace.PushDown)
		if err != nil {
			t.Fatal(err)
		}
		db.SetCaching(true)
		on, err := db.Query(sql, predplace.PushDown)
		if err != nil {
			t.Fatal(err)
		}
		for fn, offCalls := range off.Stats.Invocations {
			if onCalls := on.Stats.Invocations[fn]; onCalls > offCalls {
				t.Fatalf("caching increased %s invocations (%d > %d) on %q",
					fn, onCalls, offCalls, sql)
			}
		}
		if off.Stats.Rows != on.Stats.Rows {
			t.Fatalf("caching changed the answer on %q", sql)
		}
	}
}
