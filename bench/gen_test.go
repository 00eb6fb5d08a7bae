package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"predplace"
	"predplace/internal/datagen"
	"predplace/internal/optimizer"
	"predplace/internal/sqlparse"
)

func adhocCycles(seed int64, n int) []stmt {
	g := newAdhocGen(seed, map[string]bool{})
	var out []stmt
	for i := 0; i < n; i++ {
		out = append(out, g.cycle()...)
	}
	return out
}

func TestAdhocSameSeedSameSequence(t *testing.T) {
	if !reflect.DeepEqual(adhocCycles(7, 3), adhocCycles(7, 3)) {
		t.Fatal("seed 7 produced two different statement sequences")
	}
	if reflect.DeepEqual(adhocCycles(7, 1), adhocCycles(8, 1)) {
		t.Fatal("seeds 7 and 8 produced the same statement sequence")
	}
}

func TestAdhocNeverRepeatsAndKeepsItsMix(t *testing.T) {
	seen := map[string]bool{}
	g := newAdhocGen(3, seen)
	warm := newAdhocGen(3^0x5eed, seen).cycle()
	texts := map[string]bool{}
	for _, s := range warm {
		texts[s.SQL] = true
	}
	for c := 0; c < 40; c++ {
		cycle := g.cycle()
		if len(cycle) != adhocCycleLen {
			t.Fatalf("cycle %d has %d statements, want %d", c, len(cycle), adhocCycleLen)
		}
		algos := map[predplace.Algorithm]int{}
		for _, s := range cycle {
			if texts[s.SQL] {
				t.Fatalf("statement repeated: %s", s.SQL)
			}
			texts[s.SQL] = true
			algos[s.Algo]++
		}
		if algos[predplace.Migration] != adhocCycleLen/2 || algos[predplace.Robust] != adhocCycleLen/2 {
			t.Fatalf("cycle %d algorithm mix %v", c, algos)
		}
	}
}

// Every adhoc-planning statement must bind and plan under both algorithms
// the workload alternates between.
func TestAdhocStatementsPlanUnderBothAlgorithms(t *testing.T) {
	spec, err := findSpec("adhoc-planning")
	if err != nil {
		t.Fatal(err)
	}
	db, err := datagen.Build(datagen.Config{Scale: spec.Scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range adhocCycles(11, 2) {
		ast, err := sqlparse.Parse(s.SQL)
		if err != nil {
			t.Fatalf("parse %s: %v", s.SQL, err)
		}
		bound, err := (&sqlparse.Binder{Cat: db.Cat}).Bind(ast)
		if err != nil {
			t.Fatalf("bind %s: %v", s.SQL, err)
		}
		for _, algo := range []predplace.Algorithm{predplace.Migration, predplace.Robust} {
			opt := optimizer.New(db.Cat, optimizer.Options{Algorithm: algo, RobustE: predplace.DefaultRobustE})
			if _, _, err := opt.Plan(bound.Query); err != nil {
				t.Fatalf("%s on %s: %v", algo, s.SQL, err)
			}
		}
	}
}

func sqls(stmts []stmt) []string {
	var out []string
	for _, s := range stmts {
		out = append(out, s.SQL)
	}
	return out
}

func TestFixedMixesOnlyReorderWithTheSeed(t *testing.T) {
	if !reflect.DeepEqual(paperCycle(5), paperCycle(5)) || !reflect.DeepEqual(serverReads(5, 1), serverReads(5, 1)) {
		t.Fatal("same seed gave different orders")
	}
	if reflect.DeepEqual(paperCycle(1), paperCycle(2)) || reflect.DeepEqual(serverReads(1, 0), serverReads(1, 1)) {
		t.Fatal("different seeds or sessions gave the same order")
	}
	for _, pair := range [][2][]stmt{{paperCycle(1), paperCycle(2)}, {serverReads(1, 0), serverReads(2, 1)}} {
		a, b := sqls(pair[0]), sqls(pair[1])
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("mixes differ as sets:\n%v\n%v", a, b)
		}
	}
}

func TestIngestBatchSeeded(t *testing.T) {
	a := ingestBatch(rand.New(rand.NewSource(4)), 32, 16)
	b := ingestBatch(rand.New(rand.NewSource(4)), 32, 16)
	c := ingestBatch(rand.New(rand.NewSource(5)), 32, 16)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("insert batches are not a function of the seed")
	}
	if a[0].ID != 32 || a[15].ID != 47 {
		t.Fatalf("ids %d..%d, want 32..47", a[0].ID, a[15].ID)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Parent: -1, Start: 0, End: 100},
		{Parent: 0, Start: 10, End: 40},
		{Parent: 0, Start: 30, End: 50},  // overlaps its sibling
		{Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Parent: 1, Start: 15, End: 20},
	}}
	tr.computeSelf()
	for i, want := range []int64{100 - 40 - 10, 30 - 5, 20, 30, 5} {
		if got := tr.spans[i].Self; got != want {
			t.Errorf("span %d self %d, want %d", i, got, want)
		}
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(bj.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.json", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if bj.Workloads[i].Name != s.Name {
			t.Errorf("workload %d: %q vs %q", i, bj.Workloads[i].Name, s.Name)
		}
	}
	e2e := endToEnd([]time.Duration{time.Second}, &window{latMs: []float64{1}, busy: time.Second}, 1)
	layer := layerMetrics()
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		m      metrics
	}{{bj.EndToEnd, e2e}, {bj.PerLayer, layer}} {
		if len(c.listed) != len(c.m) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.listed), len(c.m))
		}
		for _, l := range c.listed {
			if got, ok := c.m[l.Name]; !ok || got.Unit != l.Unit {
				t.Errorf("metric %s (%s): program has %+v", l.Name, l.Unit, got)
			}
		}
	}
}
