package optimizer

import (
	"fmt"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/query"
)

// adhocShape is one fixed statement in the shape of the adhoc-planning
// workload: a join chain of distinct tables on ua1, costlyN selections
// ({function, table, column}) and an index range a10 < rangeHi.
type adhocShape struct {
	tables     []string
	costly     [][3]string
	rangeTable string
	rangeHi    int64
}

var adhocShapes = map[int]adhocShape{
	3: {
		tables:     []string{"t3", "t10", "t9"},
		costly:     [][3]string{{"costly100", "t10", "u20"}, {"costly1", "t9", "u10"}},
		rangeTable: "t3", rangeHi: 30,
	},
	4: {
		tables:     []string{"t4", "t8", "t10", "t5"},
		costly:     [][3]string{{"costly1", "t5", "u20"}, {"costly100", "t10", "u10"}, {"costly1", "t8", "ua1"}},
		rangeTable: "t5", rangeHi: 30,
	},
	5: {
		tables: []string{"t7", "t5", "t8", "t2", "t9"},
		costly: [][3]string{{"costly1000", "t5", "ua1"}, {"costly10", "t8", "u10"},
			{"costly1000", "t5", "u20"}, {"costly100", "t9", "u20"}},
		rangeTable: "t8", rangeHi: 96,
	},
}

// adhocQuery builds and analyzes the n-way adhoc shape.
func adhocQuery(tb testing.TB, db *datagen.DB, n int) *query.Query {
	tb.Helper()
	s := adhocShapes[n]
	var preds []*query.Predicate
	for i := 1; i < len(s.tables); i++ {
		preds = append(preds, jp(s.tables[i-1], "ua1", s.tables[i], "ua1"))
	}
	for _, c := range s.costly {
		preds = append(preds, fp(tb, db, c[0], query.ColRef{Table: c[1], Col: c[2]}))
	}
	preds = append(preds, cp(s.rangeTable, "a10", expr.OpLT, s.rangeHi))
	return mkQuery(tb, db, s.tables, preds)
}

// BenchmarkPlan measures planning alone — the adhoc-planning workload's
// dominant layer — for Migration and Robust on 3-, 4- and 5-way joins.
func BenchmarkPlan(b *testing.B) {
	db := benchDB(b, 2, 3, 4, 5, 7, 8, 9, 10)
	for _, algo := range []Algorithm{Migration, Robust} {
		for _, n := range []int{3, 4, 5} {
			q := adhocQuery(b, db, n)
			b.Run(fmt.Sprintf("%s/%dway", benchAlgoName(algo), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := New(db.Cat, Options{Algorithm: algo}).Plan(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchAlgoName is the benchmark's sub-name for an algorithm.
func benchAlgoName(a Algorithm) string {
	if a == Migration {
		return "Migration"
	}
	return a.String()
}
