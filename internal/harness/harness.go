// Package harness defines and runs the reproduction experiments: the
// benchmark queries reconstructed from the paper (Queries 1–5), one runner
// per table and figure of the evaluation, relative-cost reporting in the
// paper's style, and machine-checkable "shape" assertions (who wins, by
// roughly what factor) recorded into EXPERIMENTS.md.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"predplace"
	"predplace/internal/expr"
)

// stmtTimeout is every benchmark statement's wall-clock deadline, so each
// ppbench leg ends with a verdict at any scale: a statement that overruns it
// fails the leg with an error naming the query, and ppbench exits nonzero.
const stmtTimeout = 60 * time.Second

// query runs one statement under the stmtTimeout deadline. Callers name the
// query when they pass its error on.
func (h *Harness) query(sql string, algo predplace.Algorithm) (*predplace.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
	defer cancel()
	res, err := h.DB.QueryContext(ctx, sql, algo)
	return res, stmtErr(err)
}

// stmtErr marks an error caused by the stmtTimeout deadline as such; other
// errors pass through unchanged.
func stmtErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("did not finish within %v: %w", stmtTimeout, err)
	}
	return err
}

// exactRows renders a result set order-sensitively, one "|"-joined string
// per row.
func exactRows(res *predplace.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

// canonicalRows renders a result set order-insensitively, for comparing
// runs whose plans may deliver rows in different orders.
func canonicalRows(res *predplace.Result) []string {
	out := exactRows(res)
	sort.Strings(out)
	return out
}

// Harness owns a generated benchmark database and runs experiments on it.
type Harness struct {
	// Scale is the database scale factor (1.0 = the paper's ~110 MB).
	Scale float64
	// DB is the open database (all ten benchmark relations).
	DB *predplace.DB
}

// New builds the benchmark database at the given scale.
func New(scale float64) (*Harness, error) {
	if scale <= 0 {
		scale = 0.05
	}
	db, err := predplace.Open(predplace.Config{Scale: scale})
	if err != nil {
		return nil, err
	}
	// selective100 is Query 5's expensive, highly selective predicate
	// (100 random I/Os per call, selectivity 0.1).
	if err := db.RegisterFunc("selective100", 1, 100, 0.1, expr.BoolStub(0.1, 424242)); err != nil {
		return nil, err
	}
	return &Harness{Scale: scale, DB: db}, nil
}

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Text is the printable report body.
	Text string
	// Metrics holds named numeric outcomes for programmatic checks.
	Metrics map[string]float64
	// Shape lists the paper's qualitative claims and whether they held.
	Shape []ShapeCheck
}

// ShapeCheck is one qualitative claim from the paper checked against our
// measurements.
type ShapeCheck struct {
	Claim  string
	Pass   bool
	Detail string
}

// Passed reports whether every shape check held.
func (r *Report) Passed() bool {
	for _, s := range r.Shape {
		if !s.Pass {
			return false
		}
	}
	return true
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if len(r.Shape) > 0 {
		b.WriteString("shape checks:\n")
		for _, s := range r.Shape {
			mark := "PASS"
			if !s.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %s", mark, s.Claim)
			if s.Detail != "" {
				fmt.Fprintf(&b, " (%s)", s.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// comparison runs one SQL text under several algorithms, with a DNF budget
// derived from the best-known plan so that runaway plans (Figure 9's PullUp)
// abort instead of running forever, exactly as the paper reports "never
// completed".
type comparison struct {
	algos   []predplace.Algorithm
	results []*predplace.Result
}

// compare runs sql, called name in errors, under the given algorithms.
// budgetFactor, when positive, caps each run's charged cost at budgetFactor
// × the cheapest observed so far (the first algorithm runs unbounded to
// establish the baseline).
func (h *Harness) compare(name, sql string, caching bool, budgetFactor float64,
	algos ...predplace.Algorithm) (*comparison, error) {
	h.DB.SetCaching(caching)
	defer h.DB.SetBudget(0)
	c := &comparison{algos: algos}
	best := 0.0
	for _, a := range algos {
		if budgetFactor > 0 && best > 0 {
			h.DB.SetBudget(budgetFactor * best)
		} else {
			h.DB.SetBudget(0)
		}
		r, err := h.query(sql, a)
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", name, a, err)
		}
		c.results = append(c.results, r)
		if !r.DNF {
			charged := r.Stats.Charged()
			if best == 0 || charged < best {
				best = charged
			}
		}
	}
	return c, nil
}

// charged returns the charged cost of the named algorithm's run.
func (c *comparison) charged(a predplace.Algorithm) float64 {
	for i, x := range c.algos {
		if x == a {
			return c.results[i].Stats.Charged()
		}
	}
	return -1
}

// dnf reports whether the named algorithm's run was aborted.
func (c *comparison) dnf(a predplace.Algorithm) bool {
	for i, x := range c.algos {
		if x == a {
			return c.results[i].DNF
		}
	}
	return false
}

// bestCharged returns the minimum charged cost among completed runs.
func (c *comparison) bestCharged() float64 {
	best := -1.0
	for _, r := range c.results {
		if r.DNF {
			continue
		}
		if v := r.Stats.Charged(); best < 0 || v < best {
			best = v
		}
	}
	return best
}

// table renders the comparison in the paper's relative style.
func (c *comparison) table() string {
	return predplace.FormatComparison(c.algos, c.results)
}

// check builds a ShapeCheck from a condition.
func check(claim string, pass bool, detailFmt string, args ...interface{}) ShapeCheck {
	return ShapeCheck{Claim: claim, Pass: pass, Detail: fmt.Sprintf(detailFmt, args...)}
}

// fourAlgos are the algorithms the paper's bar charts compare.
var fourAlgos = []predplace.Algorithm{
	predplace.PushDown, predplace.PullUp, predplace.PullRank, predplace.Migration,
}

// RunAll executes every experiment in paper order.
func (h *Harness) RunAll() ([]*Report, error) {
	runners := []func() (*Report, error){
		h.Table1, h.Table2,
		h.Fig1PlanTrees,
		h.Fig3Query1, h.Fig4Query2, h.Fig5Query3,
		h.Fig6PlanTrees, h.Fig8Query4, h.Fig9Query5,
		h.Fig10Spectrum,
		h.PlanTime5Way, h.CachingAblation, h.Ablations, h.ScaleStability, h.ComplexSuite,
	}
	var out []*Report
	for _, run := range runners {
		r, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Experiments maps experiment ids to runners.
func (h *Harness) Experiments() map[string]func() (*Report, error) {
	return map[string]func() (*Report, error){
		"table1":    h.Table1,
		"table2":    h.Table2,
		"fig1":      h.Fig1PlanTrees,
		"fig3":      h.Fig3Query1,
		"fig4":      h.Fig4Query2,
		"fig5":      h.Fig5Query3,
		"fig6":      h.Fig6PlanTrees,
		"fig8":      h.Fig8Query4,
		"fig9":      h.Fig9Query5,
		"fig10":     h.Fig10Spectrum,
		"plantime":  h.PlanTime5Way,
		"caching":   h.CachingAblation,
		"ablations": h.Ablations,
		"scaling":   h.ScaleStability,
		"complex":   h.ComplexSuite,
	}
}
