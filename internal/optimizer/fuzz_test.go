package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/exec"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// fuzzTables are the tables fuzzed queries draw from: small enough at scale
// 0.02 (200–1,200 rows) that any plan, nested loops included, runs fast.
var fuzzTables = []string{"t1", "t2", "t3", "t4", "t5", "t6"}

// fuzzQuery decodes data into a 2–4-way conjunctive query over the
// benchmark schema: a join tree on one key (ua1 or a1, whose domains nest
// across tables), 0–3 costlyN selections and an optional a10 range. Every
// byte string decodes to a valid query; missing bytes read as zero.
func fuzzQuery(tb testing.TB, db *datagen.DB, data []byte) *query.Query {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 2 + next()%3
	var names []string
	for len(names) < n {
		i := next() % len(fuzzTables)
		for slices.Contains(names, fuzzTables[i]) {
			i = (i + 1) % len(fuzzTables)
		}
		names = append(names, fuzzTables[i])
	}
	key := []string{"ua1", "a1"}[next()%2]
	var preds []*query.Predicate
	for i := 1; i < n; i++ {
		preds = append(preds, jp(names[next()%i], key, names[i], key))
	}
	for k := next() % 4; k > 0; k-- {
		fn := []string{"costly1", "costly10", "costly100"}[next()%3]
		t := names[next()%n]
		col := []string{"u10", "u20", "u100"}[next()%3]
		preds = append(preds, fp(tb, db, fn, query.ColRef{Table: t, Col: col}))
	}
	if next()%2 == 1 {
		t := names[next()%n]
		preds = append(preds, cp(t, "a10", expr.OpLT, int64(next()%50)))
	}
	return mkQuery(tb, db, names, preds)
}

// rowMultiset executes root and returns its rows canonicalized independent
// of column order (join orders permute the output columns), sorted.
func rowMultiset(t *testing.T, db *datagen.DB, root plan.Node) []string {
	t.Helper()
	res, err := exec.Run(&exec.Env{Cat: db.Cat, Pool: db.Pool}, root)
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, plan.Render(root))
	}
	out := make([]string, 0, len(res.Rows))
	cells := make([]string, len(res.Cols))
	for _, row := range res.Rows {
		for i, v := range row {
			cells[i] = res.Cols[i] + "=" + v.String()
		}
		sorted := slices.Clone(cells)
		slices.Sort(sorted)
		out = append(out, strings.Join(sorted, "|"))
	}
	slices.Sort(out)
	return out
}

// FuzzPlacementAgreesWithExhaustive is the differential check of every
// System R placement algorithm and Robust against the Exhaustive oracle:
// each must return the oracle's row multiset, produce a valid plan, and
// keep the costing contract (checkCosting). go test replays the seed corpus
// in testdata/fuzz; go test -fuzz explores further.
func FuzzPlacementAgreesWithExhaustive(f *testing.F) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 2, 3, 4, 5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mk := func() *query.Query { return fuzzQuery(t, db, data) }
		oracle, _ := planWith(t, db, Exhaustive, mk())
		want := rowMultiset(t, db, oracle)
		for _, algo := range systemRAlgorithms {
			label := fmt.Sprintf("%v %x", algo, data)
			root := checkCosting(t, db, Options{Algorithm: algo}, label, mk)
			if err := plan.Validate(root); err != nil {
				t.Fatalf("%s: %v\n%s", label, err, plan.Render(root))
			}
			if got := rowMultiset(t, db, root); !slices.Equal(got, want) {
				t.Fatalf("%s: %d rows differ from Exhaustive's %d\n%s\noracle:\n%s",
					label, len(got), len(want), plan.Render(root), plan.Render(oracle))
			}
		}
	})
}
