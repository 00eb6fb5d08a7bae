package exec

import (
	"fmt"
	"sync"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

func TestBudgetAbortsDuringHashBuild(t *testing.T) {
	// The hash join builds its table in Open; an expensive inner filter must
	// trip the budget during the build, not after.
	db, env := newEnv(t, []int{1, 2}, false)
	f, _ := db.Cat.Func("costly100")
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t2", Col: "ua1"}},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t2", Col: "ua1"}}},
	})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := &plan.Filter{Input: scanNode(t, db.Cat, "t2"), Pred: q.Preds[1]}
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	env.Budget = 500
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("expected DNF during hash build")
	}
}

func TestMergeJoinDuplicateRunsBothSides(t *testing.T) {
	// a10 join: ~10 duplicates per key on each side — every pairing must be
	// produced exactly once.
	db, env := newEnv(t, []int{2}, false)
	_ = env
	db2, env2 := newEnv(t, []int{2, 4}, false)
	_ = db
	q, _ := query.NewQuery([]string{"t2", "t4"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t2", Col: "a10"}, Right: query.ColRef{Table: "t4", Col: "a10"}},
	})
	query.Analyze(db2.Cat, q)
	outer := scanNode(t, db2.Cat, "t2")
	inner := scanNode(t, db2.Cat, "t4")
	j := &plan.Join{Method: plan.MergeJoin, Outer: outer, Inner: inner,
		Primary: q.Preds[0], SortOuter: true, SortInner: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env2, j)
	if err != nil {
		t.Fatal(err)
	}
	// t2: 400 tuples, 40 a10-values ×10; t4: 800 tuples, 80 values ×10.
	// Shared values: 40 → 40 × 10 × 10 = 4000 output pairs.
	if res.Stats.Rows != 4000 {
		t.Fatalf("rows = %d, want 4000", res.Stats.Rows)
	}
}

// TestNextBeforeOpenFails: NextBatch on an iterator that was never opened
// errors instead of producing rows — for the scans and for the merge join,
// whose inputs are only materialized by Open.
func TestNextBeforeOpenFails(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t2", Col: "ua1"}},
	})
	query.Analyze(db.Cat, q)
	outer, inner := scanNode(t, db.Cat, "t1"), scanNode(t, db.Cat, "t2")
	merge := &plan.Join{Method: plan.MergeJoin, Outer: outer, Inner: inner,
		Primary: q.Preds[0], SortOuter: true, SortInner: true}
	merge.ColRefs = plan.ConcatCols(outer, inner)
	eq := expr.I(1)
	index := &plan.IndexScan{Table: "t1", Col: "a1", Eq: &eq, ColRefs: outer.ColRefs}
	for _, n := range []plan.Node{outer, index, merge} {
		it, err := Build(env, n)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]expr.Row, 4)
		if k, err := it.NextBatch(buf); err == nil || k != 0 {
			t.Fatalf("%s: NextBatch before Open = (%d, %v), want an error", n.Describe(), k, err)
		}
	}
}

func TestExpensivePrimaryCached(t *testing.T) {
	// With caching on, the expensive join predicate's invocations collapse
	// to the distinct binding pairs.
	db, env := newEnv(t, []int{1, 2}, true)
	f, _ := db.Cat.Func("costly10join")
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "t1", Col: "u100"}, {Table: "t2", Col: "u100"}},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], ExpensivePrimary: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	t1tab, _ := db.Cat.Table("t1")
	t2tab, _ := db.Cat.Table("t2")
	// distinct(t1.u100) × distinct(t2.u100) = 2 × 4 = 8 bindings.
	distinct := (t1tab.Card / 100) * (t2tab.Card / 100)
	if res.Stats.Invocations["costly10join"] != distinct {
		t.Fatalf("invocations = %d, want %d (distinct pairs)",
			res.Stats.Invocations["costly10join"], distinct)
	}
}

func TestCrossProductNLJoin(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner} // Primary nil
	j.ColRefs = plan.ConcatCols(outer, inner)
	env.CountOnly = true
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	t1tab, _ := db.Cat.Table("t1")
	t2tab, _ := db.Cat.Table("t2")
	if int64(res.Stats.Rows) != t1tab.Card*t2tab.Card {
		t.Fatalf("cross product rows = %d, want %d", res.Stats.Rows, t1tab.Card*t2tab.Card)
	}
}

func TestUnknownJoinMethodRejected(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	outer := scanNode(t, db.Cat, "t1")
	j := &plan.Join{Method: plan.JoinMethod(99), Outer: outer, Inner: outer}
	if _, err := Build(env, j); err == nil {
		t.Fatal("unknown method should be rejected")
	}
}

func TestIndexNLRequiresEqualityPrimary(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpLT,
		Left: query.ColRef{Table: "t1", Col: "a1"}, Right: query.ColRef{Table: "t2", Col: "a1"},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.IndexNestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], InnerIndexCol: "a1"}
	if _, err := Build(env, j); err == nil {
		t.Fatal("inequality primary should be rejected for index NL")
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	// Separate Envs over the same storage must be able to scan concurrently
	// (the buffer pool and accountant are mutex-guarded).
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := &Env{Cat: db.Cat, Pool: db.Pool,
				Cache: pcache.NewManager(false, 0), CountOnly: true}
			tab, _ := db.Cat.Table("t3")
			cols := make([]query.ColRef, len(tab.Columns))
			for i, c := range tab.Columns {
				cols[i] = query.ColRef{Table: "t3", Col: c.Name}
			}
			it, err := Build(env, &plan.SeqScan{Table: "t3", ColRefs: cols})
			if err != nil {
				errs <- err
				return
			}
			if err := it.Open(); err != nil {
				errs <- err
				return
			}
			n := 0
			buf := make([]expr.Row, 7)
			for {
				k, err := it.NextBatch(buf)
				if err != nil {
					errs <- err
					return
				}
				if k == 0 {
					break
				}
				n += k
			}
			it.Close()
			if n != int(tab.Card) {
				errs <- fmt.Errorf("scanned %d, want %d", n, tab.Card)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{SyntheticIO: 5, FuncCharge: 100, Rows: 3,
		IO: storage.IOStats{SeqReads: 10, RandReads: 2}}
	out := s.String()
	if out == "" || s.Charged() != 117 {
		t.Fatalf("stats = %q charged=%v", out, s.Charged())
	}
}
