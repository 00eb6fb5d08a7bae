package harness

// The estimate-error benchmark: how much does a placement algorithm's charged
// cost degrade when the optimizer's selectivity estimate for an expensive
// predicate is wrong by a factor of e — and does closing the feedback loop
// repair it? A zero-cost stub predicate fbsel (true selectivity fixed, seeded
// evaluation) is re-registered with a declared selectivity of truth/e and
// truth×e for each error factor e, and PushDown, Migration, and Robust run
// the same join query under each misdeclaration. The stub's evaluation never
// changes, so every run must return the identical result multiset; only the
// chosen join strategy — and with it the charged cost — may move. A final
// leg turns Config.Feedback on and runs the worst misdeclaration twice: the
// first run harvests the observed selectivity, promotion refreshes the
// function's metadata and bumps the catalog version, and the second run must
// re-plan onto the cheaper strategy.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"predplace"
	"predplace/internal/cost"
	"predplace/internal/expr"
)

const (
	// fbTrueSel is fbsel's actual selectivity: chosen so the truth-optimal
	// join order differs from the one chosen under a 4× underestimate (the
	// order flip sits at declared selectivity 0.1, safely between
	// 0.3/2 = 0.15 and 0.3/4 = 0.075).
	fbTrueSel = 0.3
	// fbSeed fixes the stub's per-value coin flips, making every run's result
	// multiset identical regardless of the declared selectivity.
	fbSeed = 20260807
	// fbJoinCost and fbJoinSel are the expensive join predicate's accurate
	// metadata: its per-pair invocation charge is what the wrong join order
	// pays for.
	fbJoinCost = 5.0
	fbJoinSel  = 0.3
	fbJoinSeed = 424242321
	// fbRobustE is the Robust error-interval half-width the bench plans with.
	fbRobustE = 4.0
)

// FeedbackQuery hinges on fbsel(t3.ua1)'s declared selectivity s: the a10
// equijoin expands t3's survivors ×10/3 (est output 2000·s·scale against
// |t1| = 200·scale), so the expensive fbjoin evaluates over est 800000·s·scale
// pairs when the filtered t3 joins first and a flat 80000·scale pairs when
// t1 ⋈ t2 runs first. The orders cross at s = 0.1: with truth at 0.3 an
// underestimate of 4× or more flips the plan onto the order whose actual
// fbjoin input — and per-pair invocation charge — is about three times the
// truth-optimal one's. fbsel filters on ua1 (unique values) so the surviving
// rows are an uncorrelated sample and the a10 expansion survives the filter.
const FeedbackQuery = "SELECT * FROM t1, t2, t3 WHERE t3.a10 = t1.a10 AND fbsel(t3.ua1) AND fbjoin(t1.u20, t2.u20)"

// fbAlgos are the placement algorithms the bench compares.
var fbAlgos = []predplace.Algorithm{predplace.PushDown, predplace.Migration, predplace.Robust}

// FeedbackAlgoCell is one algorithm's charged costs at one error factor.
type FeedbackAlgoCell struct {
	Algo string `json:"algo"`
	// UnderCharged and OverCharged are the charged costs when fbsel's
	// selectivity was declared truth/e and truth×e; WorstCharged is the max.
	UnderCharged float64 `json:"under_charged"`
	OverCharged  float64 `json:"over_charged"`
	WorstCharged float64 `json:"worst_charged"`
	// RowsEqual: both runs' result multisets matched the baseline.
	RowsEqual bool `json:"rows_equal"`
}

// FeedbackErrPoint aggregates the algorithms' cells at one error factor.
type FeedbackErrPoint struct {
	E     float64            `json:"e"`
	Cells []FeedbackAlgoCell `json:"cells"`
	// RobustBeatsBoth: Robust's worst-case charged cost is strictly below
	// both PushDown's and Migration's (beyond cost.ApproxEq tolerance).
	RobustBeatsBoth bool `json:"robust_beats_both"`
	// AllMatch: every algorithm's worst-case charged cost agrees within
	// cost.ApproxEq (expected at e=1, where all estimates are correct).
	AllMatch bool `json:"all_match"`
}

// FeedbackLoop reports the closed-loop leg: the worst misdeclaration run
// twice under Config.Feedback.
type FeedbackLoop struct {
	DeclaredSel   float64 `json:"declared_sel"`
	FirstCharged  float64 `json:"first_charged"`
	SecondCharged float64 `json:"second_charged"`
	// PlanChanged: promotion re-planned the second run onto a different plan.
	PlanChanged bool `json:"plan_changed"`
	// Refreshes and Observations snapshot the feedback store after the leg.
	Refreshes    int64 `json:"refreshes"`
	Observations int64 `json:"observations"`
	// RowsEqual: both runs matched the baseline result multiset.
	RowsEqual bool `json:"rows_equal"`
	// Improved: the second run charged no more than the first.
	Improved bool `json:"improved"`
}

// FeedbackBench is the full estimate-error comparison plus the feedback loop.
type FeedbackBench struct {
	Scale   float64            `json:"scale"`
	TrueSel float64            `json:"true_sel"`
	RobustE float64            `json:"robust_e"`
	Query   string             `json:"query"`
	Points  []FeedbackErrPoint `json:"points"`
	Loop    FeedbackLoop       `json:"loop"`
	// Pass: rows identical everywhere, all algorithms match at e=1, Robust's
	// worst case beats both point-estimate algorithms at some e ≥ 4, and the
	// feedback loop's second run improved on (or matched) its first.
	Pass bool `json:"pass"`
}

// registerFbsel (re-)registers the stub with a declared selectivity (clamped
// to a valid probability). The evaluation closure is rebuilt from the same
// seed, so its behavior is byte-identical across registrations; only the
// optimizer-visible metadata moves. Re-registration bumps the catalog
// version, which is what forces cached plans for FeedbackQuery to
// re-optimize under the new declaration.
func (h *Harness) registerFbsel(declared float64) error {
	if declared > 1 {
		declared = 1
	}
	return h.DB.RegisterFunc("fbsel", 1, 0, declared, expr.BoolStub(fbTrueSel, fbSeed))
}

// registerFbjoin registers the expensive cross-table predicate with accurate
// metadata; only fbsel's declaration is ever perturbed.
func (h *Harness) registerFbjoin() error {
	return h.DB.RegisterFunc("fbjoin", 2, fbJoinCost, fbJoinSel, expr.BoolStub(fbJoinSel, fbJoinSeed))
}

// fbRun evicts the pool and runs FeedbackQuery under one algorithm, returning
// the result (cold-cache charged cost is then comparable across cells). e is
// the injected estimate error, named in the error of a run that fails or
// does not finish within stmtTimeout.
func (h *Harness) fbRun(algo predplace.Algorithm, e float64) (*predplace.Result, error) {
	if err := h.DB.EvictPool(); err != nil {
		return nil, err
	}
	res, err := h.query(FeedbackQuery, algo)
	if err != nil {
		return nil, fmt.Errorf("%v at e=%g: %w", algo, e, err)
	}
	if res.DNF {
		return nil, fmt.Errorf("%v at e=%g hit the cost budget", algo, e)
	}
	return res, nil
}

// RunFeedbackBench runs the estimate-error sweep (e ∈ {1, 2, 4, 8}, both
// misdeclaration directions, PushDown vs Migration vs Robust) and the
// closed-loop leg on the harness database.
func (h *Harness) RunFeedbackBench() (*FeedbackBench, error) {
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	h.DB.SetTransfer(false)
	h.DB.SetTopK(false)
	h.DB.SetBatchSize(0)
	h.DB.SetRobustE(fbRobustE)
	defer func() {
		h.DB.SetFeedback(false)
		h.DB.SetFeedbackThreshold(0)
		h.DB.SetRobustE(0)
	}()

	bench := &FeedbackBench{
		Scale: h.Scale, TrueSel: fbTrueSel, RobustE: fbRobustE,
		Query: FeedbackQuery, Pass: true,
	}

	// Baseline: the true declaration run once — every later run's result
	// multiset must equal this one (the stub's evaluation never changes).
	if err := h.registerFbjoin(); err != nil {
		return nil, err
	}
	if err := h.registerFbsel(fbTrueSel); err != nil {
		return nil, err
	}
	base, err := h.fbRun(predplace.Migration, 1)
	if err != nil {
		return nil, err
	}
	baseline := transferCanonRows(base)

	for _, e := range []float64{1, 2, 4, 8} {
		point := FeedbackErrPoint{E: e, AllMatch: true}
		worst := map[predplace.Algorithm]float64{}
		for _, algo := range fbAlgos {
			cell := FeedbackAlgoCell{Algo: algo.String(), RowsEqual: true}
			for _, declared := range []float64{fbTrueSel / e, fbTrueSel * e} {
				if err := h.registerFbsel(declared); err != nil {
					return nil, err
				}
				res, err := h.fbRun(algo, e)
				if err != nil {
					return nil, err
				}
				charged := res.Stats.Charged()
				if declared < fbTrueSel || e == 1 {
					cell.UnderCharged = charged
				}
				if declared > fbTrueSel || e == 1 {
					cell.OverCharged = charged
				}
				if charged > cell.WorstCharged {
					cell.WorstCharged = charged
				}
				if !slices.Equal(transferCanonRows(res), baseline) {
					cell.RowsEqual = false
					bench.Pass = false
				}
			}
			worst[algo] = cell.WorstCharged
			point.Cells = append(point.Cells, cell)
		}
		for _, algo := range fbAlgos[1:] {
			if !cost.ApproxEq(worst[algo], worst[fbAlgos[0]]) {
				point.AllMatch = false
			}
		}
		r, pd, mg := worst[predplace.Robust], worst[predplace.PushDown], worst[predplace.Migration]
		point.RobustBeatsBoth = r < pd && !cost.ApproxEq(r, pd) &&
			r < mg && !cost.ApproxEq(r, mg)
		if e == 1 && !point.AllMatch {
			bench.Pass = false
		}
		if e >= 4 && !point.RobustBeatsBoth {
			bench.Pass = false
		}
		bench.Points = append(bench.Points, point)
	}

	// Closed loop: the worst underestimate, run twice with feedback on. The
	// first run plans on the bad declaration and harvests the observed
	// selectivity; the ≈4× error exceeds the default threshold, so promotion
	// refreshes fbsel's metadata and bumps the catalog version, and the
	// second run re-plans against the corrected statistics.
	const loopE = 4
	loopDeclared := fbTrueSel / loopE
	if err := h.registerFbsel(loopDeclared); err != nil {
		return nil, err
	}
	h.DB.SetFeedback(true)
	h.DB.SetFeedbackThreshold(0)
	first, err := h.fbRun(predplace.Migration, loopE)
	if err != nil {
		return nil, fmt.Errorf("feedback loop first run: %w", err)
	}
	second, err := h.fbRun(predplace.Migration, loopE)
	if err != nil {
		return nil, fmt.Errorf("feedback loop second run: %w", err)
	}
	h.DB.SetFeedback(false)
	stats := h.DB.FeedbackStats()
	loop := FeedbackLoop{
		DeclaredSel:   loopDeclared,
		FirstCharged:  first.Stats.Charged(),
		SecondCharged: second.Stats.Charged(),
		PlanChanged:   first.Plan != second.Plan,
		Refreshes:     stats.Refreshes,
		Observations:  stats.Observations,
		RowsEqual: slices.Equal(transferCanonRows(first), baseline) &&
			slices.Equal(transferCanonRows(second), baseline),
	}
	loop.Improved = loop.SecondCharged < loop.FirstCharged ||
		cost.ApproxEq(loop.SecondCharged, loop.FirstCharged)
	if !loop.RowsEqual || !loop.Improved || loop.Refreshes < 1 {
		bench.Pass = false
	}
	bench.Loop = loop
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_feedback.json).
func (b *FeedbackBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *FeedbackBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimate-error bench: scale=%.3g true-sel=%.3g robust-e=%g (caching off)\n",
		b.Scale, b.TrueSel, b.RobustE)
	fmt.Fprintf(&sb, "%-4s %-18s %12s %12s %12s %7s\n",
		"e", "algorithm", "under-cost", "over-cost", "worst-cost", "verdict")
	for _, p := range b.Points {
		for _, c := range p.Cells {
			verdict := "OK"
			if !c.RowsEqual {
				verdict = "ROWS!"
			}
			fmt.Fprintf(&sb, "%-4g %-18s %12.0f %12.0f %12.0f %7s\n",
				p.E, c.Algo, c.UnderCharged, c.OverCharged, c.WorstCharged, verdict)
		}
		if p.E >= 4 {
			fmt.Fprintf(&sb, "     robust beats both: %v\n", p.RobustBeatsBoth)
		}
	}
	fmt.Fprintf(&sb, "loop: declared=%.4g first=%.0f second=%.0f plan-changed=%v refreshes=%d improved=%v\n",
		b.Loop.DeclaredSel, b.Loop.FirstCharged, b.Loop.SecondCharged,
		b.Loop.PlanChanged, b.Loop.Refreshes, b.Loop.Improved)
	if b.Pass {
		sb.WriteString("PASS: rows identical everywhere; algorithms agree at e=1; Robust wins worst-case at e≥4; feedback repaired the misestimate\n")
	} else {
		sb.WriteString("FAIL: see cells above\n")
	}
	return sb.String()
}
