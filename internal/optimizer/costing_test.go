package optimizer

import (
	"fmt"
	"math"
	"testing"

	"predplace/internal/cost"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// checkStoredEstimates re-annotates every root with the full Model.Annotate
// and fails when any node's recomputed EstCard or EstCost is not bitwise
// equal to the value it carried before. Subtrees shared between roots are
// compared against the value stored when the enumerator built them.
func checkStoredEstimates(t *testing.T, m *cost.Model, label string, roots []plan.Node) {
	t.Helper()
	type est struct{ card, cost uint64 }
	bitsOf := func(n plan.Node) est {
		return est{math.Float64bits(n.Card()), math.Float64bits(n.Cost())}
	}
	stored := map[plan.Node]est{}
	for _, r := range roots {
		plan.Walk(r, func(n plan.Node) { stored[n] = bitsOf(n) })
	}
	bad := 0
	for _, r := range roots {
		if err := m.Annotate(r); err != nil {
			t.Fatalf("%s: Annotate: %v", label, err)
		}
		plan.Walk(r, func(n plan.Node) {
			if got, want := bitsOf(n), stored[n]; got != want && bad < 5 {
				bad++
				t.Errorf("%s: %s stored card=%v cost=%v, full Annotate gives card=%v cost=%v",
					label, n.Describe(),
					math.Float64frombits(want.card), math.Float64frombits(want.cost),
					n.Card(), n.Cost())
			}
		})
	}
}

// dpRoots runs the System R enumeration for q and returns the root of every
// retained subplan of its table.
func dpRoots(t *testing.T, o *Optimizer, q *query.Query) []plan.Node {
	t.Helper()
	table, _, _, err := o.enumerate(q)
	if err != nil {
		t.Fatalf("%v: enumerate: %v", o.opts.Algorithm, err)
	}
	var roots []plan.Node
	for _, sps := range table {
		for _, sp := range sps {
			roots = append(roots, sp.root)
		}
	}
	return roots
}

// checkCosting holds one planning run to the costing contract: every
// subplan the DP retained — under Robust, in each of its System R runs at
// the nominal and the scaled selectivities — and the chosen root carry the
// estimates a full Annotate computes.
func checkCosting(t *testing.T, cat *datagen.DB, opts Options, label string, mk func() *query.Query) plan.Node {
	t.Helper()
	q := mk()
	o := New(cat.Cat, opts)
	if err := o.prepare(q); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if opts.Algorithm != Robust {
		checkStoredEstimates(t, o.model, label+"/dp", dpRoots(t, o, q))
	} else {
		nominal := make([]float64, len(q.Preds))
		for i, p := range q.Preds {
			nominal[i] = p.Selectivity
		}
		for _, scale := range []float64{1, DefaultRobustE, 1 / DefaultRobustE} {
			for i, p := range q.Preds {
				p.Selectivity = clampSel(nominal[i] * scale)
			}
			for _, a := range robustSpectrum {
				sub := *o
				sub.opts.Algorithm = a
				checkStoredEstimates(t, o.model, fmt.Sprintf("%s/dp-%v-x%g", label, a, scale), dpRoots(t, &sub, q))
			}
		}
		for i, p := range q.Preds {
			p.Selectivity = nominal[i]
		}
	}
	root, _, err := o.Plan(q)
	if err != nil {
		t.Fatalf("%s: Plan: %v", label, err)
	}
	checkStoredEstimates(t, o.model, label+" chosen plan", []plan.Node{root})
	return root
}

// systemRAlgorithms are the algorithms planned by the System R enumerator,
// plus Robust, which runs it under several placement policies.
var systemRAlgorithms = []Algorithm{NaivePushDown, PushDown, PullUp, PullRank, Migration, Robust}

// TestIncrementalCostingMatchesFullAnnotate is the costing contract of the
// System R enumerator (DESIGN.md §20): a join candidate is costed over its
// inputs' stored estimates, and every estimate the DP keeps must equal,
// bit for bit, what the full Annotate recomputes from the leaves — with
// predicate caching, predicate transfer and top-k planning each on and off.
func TestIncrementalCostingMatchesFullAnnotate(t *testing.T) {
	db := benchDB(t, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	queries := map[string]func() *query.Query{
		"adhoc3": func() *query.Query { return adhocQuery(t, db, 3) },
		"adhoc4": func() *query.Query { return adhocQuery(t, db, 4) },
		"adhoc5": func() *query.Query { return adhocQuery(t, db, 5) },
		"expensive-secondary-join": func() *query.Query {
			return mkQuery(t, db, []string{"t3", "t10", "t9"}, []*query.Predicate{
				jp("t3", "ua1", "t10", "ua1"),
				jp("t10", "a1", "t9", "a1"),
				fp(t, db, "costly10join", query.ColRef{Table: "t3", Col: "u20"}, query.ColRef{Table: "t10", Col: "u20"}),
				fp(t, db, "costly100", query.ColRef{Table: "t9", Col: "u20"}),
				cp("t10", "a10", expr.OpLT, 40),
			})
		},
		"expensive-primary-join": func() *query.Query {
			return mkQuery(t, db, []string{"t3", "t6", "t7", "t10"}, []*query.Predicate{
				jp("t3", "ua1", "t10", "ua1"),
				jp("t6", "a1", "t10", "a10"),
				fp(t, db, "costly10join", query.ColRef{Table: "t3", Col: "u20"}, query.ColRef{Table: "t7", Col: "u20"}),
				fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u10"}),
			})
		},
	}
	for name, mk := range queries {
		// ORDER BY the first table's indexed a10, LIMIT 10.
		topk := &TopKSpec{Key: query.ColRef{Table: mk().Tables[0], Col: "a10"}, K: 10}
		for _, algo := range systemRAlgorithms {
			for _, caching := range []bool{false, true} {
				for _, transfer := range []bool{false, true} {
					for _, withTopK := range []bool{false, true} {
						opts := Options{Algorithm: algo, Caching: caching, Transfer: transfer}
						if withTopK {
							opts.TopK = topk
						}
						label := fmt.Sprintf("%s/%v/caching=%v/transfer=%v/topk=%v", name, algo, caching, transfer, withTopK)
						checkCosting(t, db, opts, label, mk)
					}
				}
			}
		}
	}
}
