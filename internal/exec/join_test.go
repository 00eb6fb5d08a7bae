package exec

import (
	"slices"
	"testing"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// joinTestCols is the schema of the hash-join semantics tables: an id that
// makes every row distinguishable, then one join key per key type.
var joinTestCols = []catalog.Column{
	{Name: "id", Type: expr.TInt},
	{Name: "k", Type: expr.TInt},
	{Name: "b", Type: expr.TBool},
	{Name: "s", Type: expr.TString, FixedLen: 8},
}

// addRowsTable registers a heap table holding rows (in heap order), with a
// B-tree on its int key k, and returns a full-width scan of it.
func addRowsTable(t *testing.T, db *datagen.DB, name string, rows []expr.Row) *plan.SeqScan {
	t.Helper()
	codec, err := catalog.NewRowCodec(joinTestCols)
	if err != nil {
		t.Fatal(err)
	}
	index := btree.New(db.Disk.Accountant())
	tab := &catalog.Table{Name: name, Columns: joinTestCols, Codec: codec,
		TupleBytes: codec.Width(), Heap: storage.NewHeapFile(db.Pool), Card: int64(len(rows)),
		Indexes: map[string]*btree.Tree{"k": index}}
	for _, r := range rows {
		rec, err := codec.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		tid, err := tab.Heap.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !r[1].IsNull() {
			index.Insert(r[1].I, tid)
		}
	}
	if err := db.Cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return scanNode(t, db.Cat, name)
}

// runJoin executes an equijoin of outer.ocol = inner.icol with the given
// method at one batch width (an index nested loop probes inner's index on
// icol) and returns the result, rows in delivered order.
func runJoin(t *testing.T, db *datagen.DB, m plan.JoinMethod, outer, inner *plan.SeqScan,
	ocol, icol string, batch int) *Result {
	t.Helper()
	pred := &query.Predicate{Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left:  query.ColRef{Table: outer.Table, Col: ocol},
		Right: query.ColRef{Table: inner.Table, Col: icol}}
	j := &plan.Join{Method: m, Outer: outer, Inner: inner, Primary: pred,
		SortOuter: true, SortInner: true}
	if m == plan.IndexNestLoop {
		j.InnerIndexCol = icol
	}
	j.ColRefs = plan.ConcatCols(outer, inner)
	env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), BatchSize: batch}
	res, err := Run(env, j)
	if err != nil {
		t.Fatalf("%v %s=%s BS=%d: %v", m, ocol, icol, batch, err)
	}
	return res
}

// stableSorted returns rows stably sorted by column idx.
func stableSorted(rows []expr.Row, idx int) []expr.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b expr.Row) int { return a[idx].Compare(b[idx]) })
	return out
}

// refJoin is the reference equijoin: outer order × inner order, keeping
// pairs whose keys are non-NULL and Equal.
func refJoin(outer, inner []expr.Row, oi, ii int) []expr.Row {
	var out []expr.Row
	for _, o := range outer {
		for _, in := range inner {
			if !o[oi].IsNull() && o[oi].Equal(in[ii]) {
				out = append(out, o.Concat(in))
			}
		}
	}
	return out
}

func rowsEqual(a, b []expr.Row) bool {
	return slices.EqualFunc(a, b, func(x, y expr.Row) bool {
		return slices.EqualFunc(x, y, expr.Value.Equal)
	})
}

// TestHashJoinMatchesNestedLoop pins the chained hash table's semantics to a
// reference nested loop, rows and order: duplicate build keys come back in
// inner arrival order, NULL keys on either side match nothing, string keys
// join, and neither two distinct int keys sharing a bucket nor an int key
// sharing a bucket with a bool key of the same payload match each other.
// The index nested loop (on the indexed int key) and the merge join (against
// the reference over stably sorted inputs) are held to the same cases. Every
// method must return the same rows, order and charged cost at widths 1, 2,
// 3 and 256.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64, k, b, s expr.Value) expr.Row { return expr.Row{expr.I(id), k, b, s} }
	I, B, S, N := expr.I, expr.B, expr.S, expr.Null
	// linked returns the table the join builds over rows' column col.
	linked := func(rows []expr.Row, col int) *joinTable {
		jt := &joinTable{keyIdx: col}
		for _, r := range rows {
			if !r[col].IsNull() {
				jt.rows = append(jt.rows, r)
			}
		}
		jt.link()
		return jt
	}
	sameBucket := func(jt *joinTable, a, b expr.Value) bool {
		return keyHash(a)&jt.mask == keyHash(b)&jt.mask
	}
	inner := []expr.Row{
		row(100, I(7), B(true), S("ab")),
		row(101, N, N, N),
		row(102, I(0), B(false), S("")),
		row(103, I(7), B(false), S("ab")),
		row(104, I(1), B(true), S("b")),
		row(105, I(0), N, S("ab")),
		row(106, I(7), B(true), N),
		row(107, I(-1), B(false), S("x")), // k is replaced by a key colliding with 7
		row(108, I(1), B(true), S("")),
		row(109, N, B(false), S("b")),
		row(110, I(-1), B(true), S("ab")), // as row 107
	}
	jt := linked(inner, 1)
	collide := int64(8)
	for !sameBucket(jt, I(collide), I(7)) {
		collide++
	}
	inner[7][1], inner[10][1] = I(collide), I(collide)
	// Two bool keys make a 4-bucket table, where I(1) and B(true) share a
	// bucket: only the kind check keeps them apart.
	bools := []expr.Row{
		row(200, I(1), B(true), S("b")),
		row(201, N, N, N),
		row(202, I(0), B(true), S("ab")),
	}
	if !sameBucket(linked(bools, 2), I(1), B(true)) {
		t.Fatal("I(1) and B(true) no longer share a bucket; pick other bool rows")
	}
	outer := []expr.Row{
		row(1, I(7), B(true), S("ab")),
		row(2, N, N, N),
		row(3, I(1), B(false), S("b")),
		row(4, I(collide), B(true), S("zz")),
		row(5, I(0), N, S("")),
		row(6, I(7), B(false), N),
		row(7, I(3), B(true), S("ab")),
		row(8, I(1), B(true), S("x")),
	}
	oscan := addRowsTable(t, db, "hjo", outer)
	iscan := addRowsTable(t, db, "hji", inner)
	bscan := addRowsTable(t, db, "hjb", bools)
	idx := map[string]int{"k": 1, "b": 2, "s": 3}
	cases := []struct {
		ocol, icol string
		inner      []expr.Row
		scan       *plan.SeqScan
		wantRows   bool
	}{
		{"k", "k", inner, iscan, true},
		{"b", "b", inner, iscan, true},
		{"s", "s", inner, iscan, true},
		{"k", "b", inner, iscan, false}, // int 0/1 against bool false/true
		{"k", "b", bools, bscan, false}, // the same, sharing a bucket
	}
	for _, c := range cases {
		oi, ii := idx[c.ocol], idx[c.icol]
		ref := refJoin(outer, c.inner, oi, ii)
		if (len(ref) > 0) != c.wantRows {
			t.Fatalf("%s=%s.%s: reference has %d rows", c.ocol, c.scan.Table, c.icol, len(ref))
		}
		for _, m := range []plan.JoinMethod{plan.HashJoin, plan.IndexNestLoop, plan.MergeJoin} {
			want := ref
			switch {
			case m == plan.IndexNestLoop && c.icol != "k":
				continue // only k is indexed
			case m == plan.MergeJoin:
				want = refJoin(stableSorted(outer, oi), stableSorted(c.inner, ii), oi, ii)
			}
			var charged float64
			for i, bs := range []int{1, 2, 3, 256} {
				res := runJoin(t, db, m, oscan, c.scan, c.ocol, c.icol, bs)
				if !rowsEqual(res.Rows, want) {
					t.Fatalf("%v %s=%s.%s BS=%d:\ngot  %v\nwant %v", m, c.ocol, c.scan.Table, c.icol, bs, res.Rows, want)
				}
				if i == 0 {
					charged = res.Stats.Charged()
				} else if got := res.Stats.Charged(); got != charged {
					t.Fatalf("%v %s=%s.%s BS=%d: charged %v, BS=1 charged %v", m, c.ocol, c.scan.Table, c.icol, bs, got, charged)
				}
			}
		}
	}
}

// TestMergeJoinStableOrder: over heavily duplicated keys the merge join's
// sorts must produce exactly the stable sort's order on both sides, so its
// output equals a join of stably sorted inputs.
func TestMergeJoinStableOrder(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	outer, inner := scanNode(t, db.Cat, "t1"), scanNode(t, db.Cat, "t2")
	for _, col := range []string{"u10", "a10"} {
		oi, ii := plan.ColIndex(outer, query.ColRef{Table: "t1", Col: col}),
			plan.ColIndex(inner, query.ColRef{Table: "t2", Col: col})
		orows, irows := naiveRows(t, db.Cat, "t1"), naiveRows(t, db.Cat, "t2")
		slices.SortStableFunc(orows, func(a, b expr.Row) int { return a[oi].Compare(b[oi]) })
		slices.SortStableFunc(irows, func(a, b expr.Row) int { return a[ii].Compare(b[ii]) })
		want := refJoin(orows, irows, oi, ii)
		if len(want) < 10*len(orows) {
			t.Fatalf("%s: only %d rows; the test needs heavy duplication", col, len(want))
		}
		for _, bs := range []int{1, 256} {
			got := runJoin(t, db, plan.MergeJoin, outer, inner, col, col, bs).Rows
			if !rowsEqual(got, want) {
				t.Fatalf("%s BS=%d: merge join order differs from the stable-sort reference (%d vs %d rows)",
					col, bs, len(got), len(want))
			}
		}
	}
}

// TestSortByKeyIsStable checks sortByKey against slices.SortStableFunc on
// inputs with few distinct keys, NULLs among them.
func TestSortByKeyIsStable(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		rows := make([]expr.Row, n)
		for i := range rows {
			k := expr.I(int64((i * 7919) % 5))
			if i%11 == 0 {
				k = expr.Null
			}
			rows[i] = expr.Row{k, expr.I(int64(i))}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b expr.Row) int { return a[0].Compare(b[0]) })
		sortByKey(rows, 0)
		if !rowsEqual(rows, want) {
			t.Fatalf("n=%d: sortByKey is not the stable order", n)
		}
	}
}
