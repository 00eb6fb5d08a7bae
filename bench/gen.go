package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"predplace"
)

//go:embed workloads.json
var specJSON []byte

// Spec is one workload's record in workloads.json: why it exists, how it
// is driven, and which layers it is meant to load and to bypass.
type Spec struct {
	Name            string   `json:"name"`
	Why             string   `json:"why"`
	Loop            string   `json:"loop"`
	Clients         int      `json:"clients"`
	RateQPS         float64  `json:"rate_qps"`
	RateNote        string   `json:"rate_note"`
	API             string   `json:"api"`
	Scale           float64  `json:"scale"`
	PoolPages       int      `json:"pool_pages"`
	PoolNote        string   `json:"pool_note"`
	DataFits        bool     `json:"data_fits"`
	Caching         bool     `json:"caching"`
	Algorithms      []string `json:"algorithms"`
	MaxConcurrent   int      `json:"max_concurrent"`
	TenantQuota     float64  `json:"tenant_quota"`
	InsertBatchRows int      `json:"insert_batch_rows"`
	Loads           []string `json:"loads"`
	Bypasses        []string `json:"bypasses"`
}

func loadSpecs() ([]Spec, error) {
	var specs []Spec
	if err := json.Unmarshal(specJSON, &specs); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return specs, nil
}

func findSpec(name string) (*Spec, error) {
	specs, err := loadSpecs()
	if err != nil {
		return nil, err
	}
	var names []string
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i], nil
		}
		names = append(names, specs[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// stmt is one SQL statement and the placement algorithm it is planned with.
type stmt struct {
	SQL  string
	Algo predplace.Algorithm
}

// The paper's benchmark statements. internal/harness/queries.go holds the
// same text; the benchmark keeps its own copy so that an edit there cannot
// silently change what a recorded baseline measured.
const (
	query1 = `SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)`
	query2 = `SELECT * FROM t10, t9 WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)`
	query3 = `SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)`
	query4 = `SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)`
	fig1   = `SELECT * FROM t1, t10 WHERE t1.ua1 = t10.u10 AND costly1(t1.u100) AND costly1(t10.u100)`
	topk   = `SELECT t10.a1, t10.u20 FROM t10 WHERE costly100(t10.u100) ORDER BY t10.u20 LIMIT 10`
)

// shuffled returns the statements in a seeded order.
func shuffled(seed int64, sqls []string) []stmt {
	r := rand.New(rand.NewSource(seed))
	out := make([]stmt, len(sqls))
	for i, j := range r.Perm(len(sqls)) {
		out[i] = stmt{SQL: sqls[j], Algo: predplace.Migration}
	}
	return out
}

// paperCycle is the paper-queries statement cycle; the seed only orders it,
// so every seed runs the same work.
func paperCycle(seed int64) []stmt {
	return shuffled(seed, []string{query1, query2, query3, query4, fig1, topk})
}

// serverReads is the read mix both server-ingest sessions run, each in its
// own seeded order. Most statements return whole SELECT * results.
func serverReads(seed int64, session int) []stmt {
	return shuffled(seed*31+int64(session), []string{
		query1, query2, query4, fig1, topk,
		`SELECT t9.ua1, t9.u20, t9.str FROM t9 WHERE costly10(t9.u100) AND t9.a10 < 40`,
	})
}

// adhocGen generates adhoc-planning statements. Every statement is a 3-5-way
// join of distinct tables on one join key (ua1 or a1, whose domains nest
// across tables, so most results are not empty), 2-4 costlyN predicates and a
// seeded index range on a10. A cycle holds one statement for each
// (tables, predicates, algorithm, join key) combination, so every run of
// whole cycles has the same mix; seen guarantees that no text repeats.
type adhocGen struct {
	r    *rand.Rand
	seen map[string]bool
}

func newAdhocGen(seed int64, seen map[string]bool) *adhocGen {
	return &adhocGen{r: rand.New(rand.NewSource(seed)), seen: seen}
}

// adhocCycleLen is the number of statements in one adhoc-planning cycle.
const adhocCycleLen = 3 * 3 * 2 * 2

// deck returns n values cycling through vals, shuffled.
func (g *adhocGen) deck(n int, vals ...int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = vals[i%len(vals)]
	}
	g.r.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// dealDistinct makes the first n cards of the table deck distinct: a
// repeat swaps with a later card or, with none left, is redrawn.
func (g *adhocGen) dealDistinct(deck []int, n int) {
	for i := 1; i < n; i++ {
		for j := n; j < len(deck) && slices.Contains(deck[:i], deck[i]); j++ {
			deck[i], deck[j] = deck[j], deck[i]
		}
		for slices.Contains(deck[:i], deck[i]) {
			deck[i] = 1 + g.r.Intn(10)
		}
	}
}

func (g *adhocGen) cycle() []stmt {
	// Each cycle deals its predicates' per-call costs, its tables and its
	// range widths from shuffled decks holding every value about equally
	// often, so that these choices do not vary a run's mix with the seed.
	costs := g.deck(2*2*3*(2+3+4), 1, 10, 100, 1000)
	tables := g.deck(2*2*3*(3+4+5), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	widths := g.deck(adhocCycleLen, 3, 4, 5, 6, 7, 8, 9)
	out := make([]stmt, 0, adhocCycleLen)
	for n := 3; n <= 5; n++ {
		for preds := 2; preds <= 4; preds++ {
			for _, algo := range []predplace.Algorithm{predplace.Migration, predplace.Robust} {
				for _, key := range []string{"ua1", "a1"} {
					g.dealDistinct(tables, n)
					q := adhocStmt{tables: tables[:n], key: key, costs: costs[:preds], width: widths[0]}
					out = append(out, stmt{SQL: g.distinct(q), Algo: algo})
					tables, costs, widths = tables[n:], costs[preds:], widths[1:]
				}
			}
		}
	}
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// adhocStmt is the dealt shape of one statement: the numbers N of its
// tables tN, its join key, its predicates' per-call costs and its range
// width in tenths of the a10 domain.
type adhocStmt struct {
	tables []int
	key    string
	costs  []int
	width  int
}

// distinct completes the shape into a statement whose text is new,
// redrawing the free choices until it is.
func (g *adhocGen) distinct(q adhocStmt) string {
	for {
		s := g.one(q)
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

func (g *adhocGen) one(q adhocStmt) string {
	r := g.r
	n := len(q.tables)
	names := make([]string, n)
	for i, t := range q.tables {
		names[i] = fmt.Sprintf("t%d", t)
	}
	var conds []string
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", names[j], q.key, names[i], q.key))
	}
	for _, cost := range q.costs {
		col := []string{"u10", "u20", "ua1"}[r.Intn(3)]
		conds = append(conds, fmt.Sprintf("costly%d(%s.%s)", cost, names[r.Intn(n)], col))
	}
	// tN has N×200 rows at scale 0.02, so a10 takes N×20 values.
	ti := r.Intn(n)
	conds = append(conds, fmt.Sprintf("%s.a10 < %d", names[ti], q.tables[ti]*2*q.width))
	return "SELECT * FROM " + strings.Join(names, ", ") + " WHERE " + strings.Join(conds, " AND ")
}

// ingestRow is one row of the server-ingest side table.
type ingestRow struct {
	ID, K, V int64
	Note     string
}

// ingestBatch returns the next batch of side-table rows; ids continue from
// next, and k and v are seeded.
func ingestBatch(r *rand.Rand, next int64, n int) []ingestRow {
	rows := make([]ingestRow, n)
	for i := range rows {
		rows[i] = ingestRow{ID: next + int64(i), K: r.Int63n(1000), V: r.Int63(), Note: fmt.Sprintf("batch-%d", next)}
	}
	return rows
}
