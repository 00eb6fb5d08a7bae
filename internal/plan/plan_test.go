package plan

import (
	"math"
	"slices"
	"strings"
	"testing"

	"predplace/internal/expr"
	"predplace/internal/query"
)

func cols(t, names string) []query.ColRef {
	var out []query.ColRef
	for _, n := range strings.Split(names, ",") {
		out = append(out, query.ColRef{Table: t, Col: n})
	}
	return out
}

func testTree() (*Join, *Filter, *SeqScan, *SeqScan) {
	r := &SeqScan{Table: "r", ColRefs: cols("r", "a,b"), EstCard: 100, EstCost: 10}
	s := &SeqScan{Table: "s", ColRefs: cols("s", "a,b"), EstCard: 1000, EstCost: 100}
	f := &Filter{
		Input: r,
		Pred: &query.Predicate{
			Kind:   query.KindFunc,
			Func:   expr.NewCostly("costly10", 1, 10, 0.5, 1),
			Args:   []query.ColRef{{Table: "r", Col: "b"}},
			Tables: []string{"r"}, CostPerTuple: 10, Selectivity: 0.5,
		},
		EstCard: 50, EstCost: 1010,
	}
	jp := &query.Predicate{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "r", Col: "a"}, Right: query.ColRef{Table: "s", Col: "a"},
		Tables: []string{"r", "s"}, Selectivity: 0.001,
	}
	j := &Join{Method: HashJoin, Outer: f, Inner: s, Primary: jp}
	j.ColRefs = ConcatCols(f, s)
	j.EstCard, j.EstCost = 50, 2000
	return j, f, r, s
}

func TestColsAndConcat(t *testing.T) {
	j, f, r, _ := testTree()
	if len(j.Cols()) != 4 {
		t.Fatalf("join cols = %v", j.Cols())
	}
	if len(f.Cols()) != 2 || f.Cols()[0] != r.Cols()[0] {
		t.Fatal("filter must forward input cols")
	}
	if ColIndex(j, query.ColRef{Table: "s", Col: "b"}) != 3 {
		t.Fatalf("ColIndex = %d", ColIndex(j, query.ColRef{Table: "s", Col: "b"}))
	}
	if ColIndex(j, query.ColRef{Table: "x", Col: "y"}) != -1 {
		t.Fatal("missing col should be -1")
	}
}

// TestShareCols: after ShareCols every node exposes the same columns as
// before, held as a capacity-clipped range of the root's list.
func TestShareCols(t *testing.T) {
	j, f, r, s := testTree()
	outer := &Join{Method: NestLoop, Outer: j, Inner: &SeqScan{Table: "u", ColRefs: cols("u", "a")}}
	outer.ColRefs = ConcatCols(j, outer.Inner)
	root := &TopK{Input: outer, K: 1, Key: query.ColRef{Table: "u", Col: "a"}}
	nodes := []Node{root, outer, j, f, r, s, outer.Inner}
	before := make([][]query.ColRef, len(nodes))
	for i, n := range nodes {
		before[i] = append([]query.ColRef(nil), n.Cols()...)
	}
	ShareCols(root)
	all := root.Cols()
	for i, n := range nodes {
		got := n.Cols()
		if !slices.Equal(got, before[i]) {
			t.Fatalf("%s: columns %v, want %v", n.Describe(), got, before[i])
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: capacity %d beyond its %d columns", n.Describe(), cap(got), len(got))
		}
	}
	if &s.ColRefs[0] != &all[2] || &r.ColRefs[0] != &all[0] {
		t.Fatal("scans do not share the root's column list")
	}
}

func TestChildren(t *testing.T) {
	j, f, r, s := testTree()
	if c := j.Children(); len(c) != 2 || c[0] != f || c[1] != s {
		t.Fatal("join children wrong")
	}
	if c := f.Children(); len(c) != 1 || c[0] != r {
		t.Fatal("filter children wrong")
	}
	if r.Children() != nil {
		t.Fatal("scan has no children")
	}
}

func TestRender(t *testing.T) {
	j, _, _, _ := testTree()
	out := Render(j)
	for _, want := range []string{"HashJoin", "Filter*", "SeqScan r", "SeqScan s", "card="} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	// Filter indented under join, scans under that.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Fatalf("indentation wrong:\n%s", out)
	}
}

func TestTopFilters(t *testing.T) {
	j, f, r, _ := testTree()
	chain, base := TopFilters(f)
	if len(chain) != 1 || chain[0] != f || base != r {
		t.Fatal("TopFilters on filter chain wrong")
	}
	chain, base = TopFilters(j)
	if len(chain) != 0 || base != j {
		t.Fatal("TopFilters on join should be empty")
	}
}

func TestBaseTable(t *testing.T) {
	j, f, _, _ := testTree()
	table, filters, ok := BaseTable(f)
	if !ok || table != "r" || len(filters) != 1 {
		t.Fatalf("BaseTable(filter) = %v %v %v", table, filters, ok)
	}
	if _, _, ok := BaseTable(j); ok {
		t.Fatal("BaseTable over a join must fail")
	}
	is := &IndexScan{Table: "x", Col: "k", Matched: &query.Predicate{Kind: query.KindSelCmp}}
	table, filters, ok = BaseTable(is)
	if !ok || table != "x" || len(filters) != 1 {
		t.Fatal("BaseTable(IndexScan) should include matched pred as filter")
	}
}

func TestTablesAndCollectFilters(t *testing.T) {
	j, _, _, _ := testTree()
	tabs := Tables(j)
	if !tabs["r"] || !tabs["s"] || len(tabs) != 2 {
		t.Fatalf("Tables = %v", tabs)
	}
	fs := CollectFilters(j)
	if len(fs) != 1 {
		t.Fatalf("CollectFilters = %d", len(fs))
	}
}

func TestJoinMethodString(t *testing.T) {
	want := map[JoinMethod]string{
		NestLoop: "NestLoop", IndexNestLoop: "IndexNestLoop",
		MergeJoin: "MergeJoin", HashJoin: "HashJoin",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	j, _, _, _ := testTree()
	if err := Validate(j); err != nil {
		t.Fatalf("Validate(testTree) = %v, want nil", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		// build returns a malformed tree derived from testTree.
		build func() Node
		want  string // substring of the expected error
	}{
		{
			name: "nil root",
			build: func() Node {
				return nil
			},
			want: "nil root",
		},
		{
			name: "nil join child",
			build: func() Node {
				j, _, _, _ := testTree()
				j.Inner = nil
				return j
			},
			want: "nil child",
		},
		{
			name: "filter outputs more tuples than its input",
			build: func() Node {
				j, f, _, _ := testTree()
				f.EstCard = 200 // input r has EstCard 100
				return j
			},
			want: "outputs",
		},
		{
			name: "predicate reads a column not produced below it",
			build: func() Node {
				j, f, _, _ := testTree()
				f.Pred.Args = []query.ColRef{{Table: "z", Col: "q"}}
				return j
			},
			want: "not produced below",
		},
		{
			name: "same predicate applied twice on one path",
			build: func() Node {
				j, f, r, _ := testTree()
				dup := &Filter{Input: r, Pred: f.Pred, EstCard: 50, EstCost: 1010}
				f.Input = dup
				f.EstCost = 2010
				j.EstCost = 3000
				return j
			},
			want: "twice",
		},
		{
			name: "negative cost",
			build: func() Node {
				j, _, r, _ := testTree()
				r.EstCost = -1
				return j
			},
			want: "invalid estimated cost",
		},
		{
			name: "NaN cardinality",
			build: func() Node {
				j, _, _, s := testTree()
				s.EstCard = math.NaN()
				return j
			},
			want: "invalid estimated cardinality",
		},
		{
			name: "filter cheaper than its input",
			build: func() Node {
				j, f, _, _ := testTree()
				f.EstCost = 5 // input r costs 10
				return j
			},
			want: "cumulative",
		},
		{
			name: "join output columns out of order",
			build: func() Node {
				j, _, _, _ := testTree()
				j.ColRefs = ConcatCols(j.Inner, j.Outer) // inner++outer: wrong
				return j
			},
			want: "outer++inner",
		},
		{
			name: "unknown join method",
			build: func() Node {
				j, _, _, _ := testTree()
				j.Method = JoinMethod(99)
				return j
			},
			want: "unknown join method",
		},
		{
			name: "nested-loop inner is not a base table",
			build: func() Node {
				j, _, _, _ := testTree()
				inner, _, _, _ := testTree()
				j.Method = NestLoop
				j.Inner = inner
				j.ColRefs = ConcatCols(j.Outer, inner)
				j.EstCost = 1e6
				return j
			},
			want: "base table",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.build())
			if err == nil {
				t.Fatal("Validate accepted a malformed tree")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDescribe(t *testing.T) {
	j, f, r, _ := testTree()
	if !strings.Contains(j.Describe(), "HashJoin") {
		t.Fatal("join describe")
	}
	if !strings.Contains(f.Describe(), "Filter*") {
		t.Fatal("expensive filter should render Filter*")
	}
	if !strings.Contains(r.Describe(), "SeqScan r") {
		t.Fatal("scan describe")
	}
	v := expr.I(5)
	is := &IndexScan{Table: "t", Col: "k", Eq: &v}
	if !strings.Contains(is.Describe(), "= 5") {
		t.Fatalf("index scan describe: %s", is.Describe())
	}
	lo := expr.I(1)
	is2 := &IndexScan{Table: "t", Col: "k", Lo: &lo}
	if !strings.Contains(is2.Describe(), ">= 1") {
		t.Fatalf("range scan describe: %s", is2.Describe())
	}
}
