package cost

import (
	"math"
	"testing"
	"testing/quick"

	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// testCatalog builds two tables: r (1k tuples) and s (10k tuples), both with
// a unique column a1 (indexed), a 20-dup column u20, and a 10-dup column a10.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for name, card := range map[string]int64{"r": 1000, "s": 10000} {
		tab := &catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "a1", Type: expr.TInt, Distinct: card, Min: 0, Max: card - 1},
				{Name: "a10", Type: expr.TInt, Distinct: card / 10, Min: 0, Max: card/10 - 1},
				{Name: "u20", Type: expr.TInt, Distinct: card / 20, Min: 0, Max: card/20 - 1},
			},
			Card:       card,
			TupleBytes: 100,
		}
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	c.RegisterFunc(expr.NewCostly("costly100", 1, 100, 0.5, 1))
	return c
}

func scan(cat *catalog.Catalog, t *testing.T, table string) *plan.SeqScan {
	t.Helper()
	tab, err := cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]query.ColRef, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = query.ColRef{Table: table, Col: c.Name}
	}
	return &plan.SeqScan{Table: table, ColRefs: cols}
}

func joinPred(t *testing.T, cat *catalog.Catalog, lt, lc, rt, rc string) *query.Predicate {
	t.Helper()
	q, err := query.NewQuery([]string{lt, rt}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: lt, Col: lc}, Right: query.ColRef{Table: rt, Col: rc},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Analyze(cat, q); err != nil {
		t.Fatal(err)
	}
	return q.Preds[0]
}

func funcPred(t *testing.T, cat *catalog.Catalog, fname, table, col string) *query.Predicate {
	t.Helper()
	f, err := cat.Func(fname)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewQuery([]string{table}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: table, Col: col}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Analyze(cat, q); err != nil {
		t.Fatal(err)
	}
	return q.Preds[0]
}

func TestAnnotateSeqScan(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	s := scan(cat, t, "s")
	if err := m.Annotate(s); err != nil {
		t.Fatal(err)
	}
	if s.EstCard != 10000 {
		t.Fatalf("card = %v", s.EstCard)
	}
	tab, _ := cat.Table("s")
	if s.EstCost != float64(tab.Pages()) {
		t.Fatalf("cost = %v, want pages %d", s.EstCost, tab.Pages())
	}
}

func TestAnnotateFilter(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	p := funcPred(t, cat, "costly100", "s", "u20")
	f := &plan.Filter{Input: scan(cat, t, "s"), Pred: p}
	if err := m.Annotate(f); err != nil {
		t.Fatal(err)
	}
	if f.EstCard != 5000 {
		t.Fatalf("card = %v, want 5000", f.EstCard)
	}
	// 10000 invocations × 100 plus the scan cost.
	scanCost := f.Input.Cost()
	if got := f.EstCost - scanCost; math.Abs(got-1e6) > 1 {
		t.Fatalf("filter added cost = %v, want 1e6", got)
	}
}

// TestAnnotateOverTrustsStoredEstimates: AnnotateOver costs only the nodes
// above its trusted ones, reading their stored estimates — it never
// descends into them — and agrees with Annotate when those are current.
func TestAnnotateOverTrustsStoredEstimates(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	p := funcPred(t, cat, "costly100", "s", "u20")
	in := &plan.Filter{Input: scan(cat, t, "s"), Pred: p}
	j := &plan.Join{Method: plan.HashJoin, Outer: scan(cat, t, "r"), Inner: in,
		Primary: joinPred(t, cat, "r", "a1", "s", "a1")}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	full := *j
	if err := m.AnnotateOver(j, j.Outer, in); err != nil {
		t.Fatal(err)
	}
	if j.EstCard != full.EstCard || j.EstCost != full.EstCost {
		t.Fatalf("AnnotateOver over current inputs = (%v, %v), Annotate = (%v, %v)",
			j.EstCard, j.EstCost, full.EstCard, full.EstCost)
	}
	// A trusted node's stored estimates are read, not recomputed.
	in.EstCard, in.EstCost = 1, 1e6
	if err := m.AnnotateOver(j, j.Outer, in); err != nil {
		t.Fatal(err)
	}
	if in.EstCard != 1 || in.EstCost != 1e6 || j.EstCost <= 1e6 {
		t.Fatalf("trusted inner was recomputed or ignored: inner (%v, %v), join cost %v",
			in.EstCard, in.EstCost, j.EstCost)
	}
}

func TestFilterInvocationsCachingCap(t *testing.T) {
	cat := testCatalog(t)
	p := funcPred(t, cat, "costly100", "s", "u20") // 500 distinct values
	uncached := NewModel(cat, false)
	cached := NewModel(cat, true)
	if got := uncached.FilterInvocations(p, 30000); got != 30000 {
		t.Fatalf("uncached invocations = %v", got)
	}
	if got := cached.FilterInvocations(p, 30000); got != 500 {
		t.Fatalf("cached invocations = %v, want 500 (distinct cap)", got)
	}
	if got := cached.FilterInvocations(p, 100); got != 100 {
		t.Fatalf("cached invocations below cap = %v, want 100", got)
	}
}

func TestAnnotateHashJoin(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	j := &plan.Join{
		Method:  plan.HashJoin,
		Outer:   scan(cat, t, "r"),
		Inner:   scan(cat, t, "s"),
		Primary: jp,
	}
	j.ColRefs = plan.ConcatCols(j.Outer, j.Inner)
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	// Key join r(1k) ⋈ s(10k) on unique cols: |out| = s·R·S = 1e-4·1e3·1e4 = 1000.
	if math.Abs(j.EstCard-1000) > 1 {
		t.Fatalf("join card = %v, want 1000", j.EstCard)
	}
	want := j.Outer.Cost() + j.Inner.Cost() + 11000*HashSpillPerTuple
	if math.Abs(j.EstCost-want) > 1 {
		t.Fatalf("join cost = %v, want %v", j.EstCost, want)
	}
}

func TestAnnotateIndexNestLoop(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	j := &plan.Join{
		Method:        plan.IndexNestLoop,
		Outer:         scan(cat, t, "r"),
		Inner:         scan(cat, t, "s"),
		Primary:       jp,
		InnerIndexCol: "a1",
	}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.EstCard-1000) > 1 {
		t.Fatalf("card = %v", j.EstCard)
	}
	// outer scan + 1000 probes + 1000 fetches.
	want := j.Outer.Cost() + 1000*ProbeCost + 1000*RandPageCost
	if math.Abs(j.EstCost-want) > 1 {
		t.Fatalf("cost = %v, want %v", j.EstCost, want)
	}
}

func TestAnnotateNestLoopRescans(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	j := &plan.Join{
		Method:  plan.NestLoop,
		Outer:   scan(cat, t, "r"),
		Inner:   scan(cat, t, "s"),
		Primary: jp,
	}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	stab, _ := cat.Table("s")
	want := j.Outer.Cost() + 1000*float64(stab.Pages())
	if math.Abs(j.EstCost-want) > 1 {
		t.Fatalf("NL cost = %v, want %v (1000 rescans)", j.EstCost, want)
	}
}

func TestNestLoopInnerExpensiveFilterIsCatastrophicUncached(t *testing.T) {
	cat := testCatalog(t)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	fp := funcPred(t, cat, "costly100", "s", "u20")
	mk := func() *plan.Join {
		return &plan.Join{
			Method:  plan.NestLoop,
			Outer:   scan(cat, t, "r"),
			Inner:   &plan.Filter{Input: scan(cat, t, "s"), Pred: fp},
			Primary: jp,
		}
	}
	uncachedJ, cachedJ := mk(), mk()
	if err := NewModel(cat, false).Annotate(uncachedJ); err != nil {
		t.Fatal(err)
	}
	if err := NewModel(cat, true).Annotate(cachedJ); err != nil {
		t.Fatal(err)
	}
	// Uncached: 1000 passes × 10000 tuples × 100 = 1e9 function charge.
	if uncachedJ.EstCost < 1e9 {
		t.Fatalf("uncached NL inner filter cost = %v, want >= 1e9", uncachedJ.EstCost)
	}
	// Cached: at most 500 distinct bindings × 100 = 5e4 charge.
	if cachedJ.EstCost > 1e6 {
		t.Fatalf("cached NL inner filter cost = %v, should be bounded by cache", cachedJ.EstCost)
	}
}

func TestExpensivePrimaryJoinPairsCharge(t *testing.T) {
	cat := testCatalog(t)
	f, _ := cat.Func("costly100")
	q, _ := query.NewQuery([]string{"r", "s"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "r", Col: "u20"}, {Table: "s", Col: "u20"}},
	}})
	query.Analyze(cat, q)
	jp := q.Preds[0]
	m := NewModel(cat, false)
	j := &plan.Join{
		Method:           plan.NestLoop,
		Outer:            scan(cat, t, "r"),
		Inner:            scan(cat, t, "s"),
		Primary:          jp,
		ExpensivePrimary: true,
	}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	// 1e3 × 1e4 pairs × 100 = 1e9 dominates.
	if j.EstCost < 1e9 {
		t.Fatalf("expensive primary join cost = %v, want >= 1e9", j.EstCost)
	}
	if math.Abs(j.EstCard-0.5*1e7) > 1 {
		t.Fatalf("card = %v, want 5e6", j.EstCard)
	}
}

func TestJoinInputStatsPerInputSelectivity(t *testing.T) {
	// The paper's motivating example (§3.2): R(100) ⋈ S(1000) on primary
	// keys has selectivity 1 over R and 1/10 over S — the global model
	// cannot express this.
	cat := catalog.New()
	for name, card := range map[string]int64{"rr": 100, "ss": 1000} {
		cat.AddTable(&catalog.Table{
			Name:       name,
			Columns:    []catalog.Column{{Name: "k", Type: expr.TInt, Distinct: card, Min: 0, Max: card - 1}},
			Card:       card,
			TupleBytes: 100,
		})
	}
	q, _ := query.NewQuery([]string{"rr", "ss"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "rr", Col: "k"}, Right: query.ColRef{Table: "ss", Col: "k"},
	}})
	query.Analyze(cat, q)
	m := NewModel(cat, false)
	mkScan := func(tb string, card int64) *plan.SeqScan {
		return &plan.SeqScan{Table: tb, ColRefs: []query.ColRef{{Table: tb, Col: "k"}}}
	}
	j := &plan.Join{Method: plan.HashJoin, Outer: mkScan("rr", 100), Inner: mkScan("ss", 1000), Primary: q.Preds[0]}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	outer, inner := m.JoinInputStats(j)
	if math.Abs(outer.Sel-1.0) > 1e-9 {
		t.Fatalf("sel over outer = %v, want 1", outer.Sel)
	}
	if math.Abs(inner.Sel-0.1) > 1e-9 {
		t.Fatalf("sel over inner = %v, want 0.1", inner.Sel)
	}
}

func TestGroupRankFormula(t *testing.T) {
	// rank(J1J2) = (s1·s2 − 1)/(c1 + s1·c2), §4.4.
	j1 := Module{Sel: 1.0, Cost: 3}
	j2 := Module{Sel: 0.1, Cost: 3}
	g := Compose(j1, j2)
	if math.Abs(g.Sel-0.1) > 1e-12 || math.Abs(g.Cost-6) > 1e-12 {
		t.Fatalf("compose = %+v", g)
	}
	want := (0.1 - 1) / 6.0
	if math.Abs(g.Rank()-want) > 1e-12 {
		t.Fatalf("group rank = %v, want %v", g.Rank(), want)
	}
	if math.Abs(GroupRank(j1, j2)-want) > 1e-12 {
		t.Fatal("GroupRank disagrees with Compose().Rank()")
	}
}

func TestComposeAssociativeQuick(t *testing.T) {
	f := func(s1, s2, s3, c1, c2, c3 float64) bool {
		abs := func(x float64) float64 { return math.Abs(x) }
		// constrain to sane positive ranges
		norm := func(x float64, scale float64) float64 { return math.Mod(abs(x), scale) + 0.001 }
		a := Module{Sel: norm(s1, 2), Cost: norm(c1, 100)}
		b := Module{Sel: norm(s2, 2), Cost: norm(c2, 100)}
		c := Module{Sel: norm(s3, 2), Cost: norm(c3, 100)}
		l := Compose(Compose(a, b), c)
		r := Compose(a, Compose(b, c))
		return math.Abs(l.Sel-r.Sel) < 1e-6*(1+abs(l.Sel)) &&
			math.Abs(l.Cost-r.Cost) < 1e-6*(1+abs(l.Cost))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRankBetweenMembers(t *testing.T) {
	// For out-of-order pairs (rank(a) > rank(b)), the group rank lies
	// strictly between rank(b) and rank(a) — the property Predicate
	// Migration relies on for the parallel-chains step.
	a := Module{Sel: 1.0, Cost: 3} // rank 0
	b := Module{Sel: 0.1, Cost: 3} // rank -0.3
	g := GroupRank(a, b)
	if !(g > b.Rank() && g < a.Rank()) {
		t.Fatalf("group rank %v not between %v and %v", g, b.Rank(), a.Rank())
	}
}

func TestCachingBoundsJoinSelectivityAtOne(t *testing.T) {
	cat := testCatalog(t)
	// Many-to-many join r.a10 = s.a10: over r the tuple-based selectivity is
	// 10 (each r tuple matches ~10 s tuples); with caching it must be ≤ 1.
	jp := joinPred(t, cat, "r", "a10", "s", "a10")
	mk := func(caching bool) (InputStats, InputStats) {
		m := NewModel(cat, caching)
		j := &plan.Join{Method: plan.HashJoin, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"), Primary: jp}
		if err := m.Annotate(j); err != nil {
			t.Fatal(err)
		}
		o, i := m.JoinInputStats(j)
		return o, i
	}
	o, _ := mk(false)
	if o.Sel <= 1 {
		t.Fatalf("uncached sel over outer = %v, want > 1 (duplicating join)", o.Sel)
	}
	oc, ic := mk(true)
	if oc.Sel > 1 || ic.Sel > 1 {
		t.Fatalf("cached selectivities must be bounded by 1: %v %v", oc.Sel, ic.Sel)
	}
}

func TestSelectionModuleCachingDiscount(t *testing.T) {
	cat := testCatalog(t)
	p := funcPred(t, cat, "costly100", "s", "u20") // 500 distinct
	m := NewModel(cat, true)
	mod := m.SelectionModule(p, 10000)
	// 500 invocations over 10000 tuples: effective per-tuple cost = 5.
	if math.Abs(mod.Cost-5) > 1e-9 {
		t.Fatalf("cached per-tuple cost = %v, want 5", mod.Cost)
	}
	mu := NewModel(cat, false).SelectionModule(p, 10000)
	if mu.Cost != 100 {
		t.Fatalf("uncached per-tuple cost = %v, want 100", mu.Cost)
	}
}

func TestAnnotateErrorsOnBadInner(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	inner := &plan.Join{Method: plan.HashJoin, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"), Primary: jp}
	j := &plan.Join{Method: plan.NestLoop, Outer: scan(cat, t, "r"), Inner: inner, Primary: jp}
	if err := m.Annotate(j); err == nil {
		t.Fatal("NL over a join inner should be rejected (left-deep only)")
	}
}
