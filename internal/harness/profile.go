package harness

// The profiling benchmark: each benchmark query (Queries 1–5 plus the §3.1
// Figure 1 example) runs twice on the same database — once with per-operator
// profiling off, once on — comparing result sets and charged cost, which
// must match bit for bit (profiling is observational: wall time is never
// charged). The profiled run's per-operator tree is flattened into records
// pairing the optimizer's estimates with measured actuals, so the JSON
// artifact (BENCH_profile.json) doubles as the est-vs-actual feedback data
// the paper used to debug its optimizer.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"predplace"
)

// profileQueries is the profiling workload: the shared figure queries plus
// Fig1Query, which runs with predicate caching on so the profile exercises
// the cache-hit/miss counters.
var profileQueries = []struct {
	name    string
	sql     string
	caching bool
}{
	{"query1", Query1, false},
	{"query2", Query2, false},
	{"query3", Query3, false},
	{"query4", Query4, false},
	{"query5", Query5, false},
	{"fig1", Fig1Query, true},
}

// ProfileOpRecord is one plan operator's est-vs-actual line, flattened from
// the OpProfile tree in pre-order (Depth reconstructs the shape).
type ProfileOpRecord struct {
	Depth       int     `json:"depth"`
	Op          string  `json:"op"`
	EstRows     float64 `json:"est_rows"`
	ActRows     int64   `json:"actual_rows"`
	ErrFactor   float64 `json:"err_factor"`
	EstCost     float64 `json:"est_cost"`
	WallMs      float64 `json:"wall_ms"`
	IOTotal     int64   `json:"io_total"`
	PredEvals   int64   `json:"pred_evals,omitempty"`
	Invocations int64   `json:"invocations,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`
	CacheMisses int64   `json:"cache_misses,omitempty"`
}

// ProfileQueryResult is one query's profiled run compared against its
// unprofiled twin.
type ProfileQueryResult struct {
	Query   string  `json:"query"`
	Caching bool    `json:"caching"`
	PlainMs float64 `json:"plain_ms"`
	ProfMs  float64 `json:"profiled_ms"`
	Charged float64 `json:"charged"`
	Rows    int     `json:"rows"`
	// RowsEqual and ChargedEqual: the profiled run returned the same result
	// set and charged exactly the same cost as the unprofiled run.
	RowsEqual    bool `json:"rows_equal"`
	ChargedEqual bool `json:"charged_equal"`
	// MaxErrFactor is the worst cardinality-estimation error in the tree.
	MaxErrFactor float64           `json:"max_err_factor"`
	MaxErrOp     string            `json:"max_err_op"`
	Operators    []ProfileOpRecord `json:"operators"`
}

// ProfileBench is the full profiling run over the six-query workload.
type ProfileBench struct {
	Scale   float64              `json:"scale"`
	Iters   int                  `json:"iters"`
	Queries []ProfileQueryResult `json:"queries"`
	// Pass is true when every query's profiled run matched its unprofiled
	// twin exactly and every operator reported an actual row count.
	Pass bool `json:"pass"`
}

// flattenProfile walks the OpProfile tree pre-order into flat records.
func flattenProfile(p *predplace.OpProfile, depth int, out []ProfileOpRecord) []ProfileOpRecord {
	out = append(out, ProfileOpRecord{
		Depth:       depth,
		Op:          p.Op,
		EstRows:     p.EstRows,
		ActRows:     p.ActRows,
		ErrFactor:   p.ErrFactor,
		EstCost:     p.EstCost,
		WallMs:      float64(p.WallNs) / 1e6,
		IOTotal:     p.IO.Total(),
		PredEvals:   p.PredEvals,
		Invocations: p.Invocations,
		CacheHits:   p.CacheHits,
		CacheMisses: p.CacheMisses,
	})
	for _, c := range p.Children {
		out = flattenProfile(c, depth+1, out)
	}
	return out
}

// RunProfileBench runs the six-query workload under Predicate Migration,
// each query once unprofiled and once profiled, asserting the
// profiled run is observationally identical (same rows, same charged cost)
// and that every operator has a measured actual row count. Timings are
// best-of-iters.
func (h *Harness) RunProfileBench(iters int) (*ProfileBench, error) {
	if iters < 1 {
		iters = 1
	}
	h.DB.SetBudget(0)
	defer h.DB.SetProfile(false)
	defer h.DB.SetCaching(false)
	bench := &ProfileBench{Scale: h.Scale, Iters: iters, Pass: true}
	for _, q := range profileQueries {
		h.DB.SetCaching(q.caching)

		h.DB.SetProfile(false)
		plain, plainMs, _, err := h.measure(q.sql, iters)
		if err != nil {
			return nil, fmt.Errorf("%s plain: %w", q.name, err)
		}

		h.DB.SetProfile(true)
		prof, profMs, _, err := h.measure(q.sql, iters)
		h.DB.SetProfile(false)
		if err != nil {
			return nil, fmt.Errorf("%s profiled: %w", q.name, err)
		}
		if prof.Profile == nil {
			return nil, fmt.Errorf("%s: profiled run returned no profile", q.name)
		}

		r := ProfileQueryResult{
			Query:        q.name,
			Caching:      q.caching,
			PlainMs:      plainMs,
			ProfMs:       profMs,
			Charged:      plain.Stats.Charged(),
			Rows:         plain.Stats.Rows,
			RowsEqual:    slices.Equal(canonicalRows(plain), canonicalRows(prof)),
			ChargedEqual: plain.Stats.Charged() == prof.Stats.Charged(),
			Operators:    flattenProfile(prof.Profile, 0, nil),
		}
		r.MaxErrFactor, r.MaxErrOp = prof.Profile.MaxErr()
		if !r.RowsEqual || !r.ChargedEqual {
			bench.Pass = false
		}
		bench.Queries = append(bench.Queries, r)
	}
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_profile.json).
func (b *ProfileBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark: one header per query, one line per operator.
func (b *ProfileBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profiling bench: scale=%.3g iters=%d (Migration)\n", b.Scale, b.Iters)
	for _, q := range b.Queries {
		verdict := "OK"
		if !q.RowsEqual {
			verdict = "ROWS!"
		} else if !q.ChargedEqual {
			verdict = "COST!"
		}
		fmt.Fprintf(&sb, "%s: plain=%.1fms profiled=%.1fms charged=%.0f rows=%d maxErr=×%.2f (%s) %s\n",
			q.Query, q.PlainMs, q.ProfMs, q.Charged, q.Rows, q.MaxErrFactor, q.MaxErrOp, verdict)
		for _, op := range q.Operators {
			fmt.Fprintf(&sb, "  %s%-40s est=%.0f actual=%d (×%.2f) wall=%.2fms io=%d",
				strings.Repeat("  ", op.Depth), op.Op, op.EstRows, op.ActRows, op.ErrFactor,
				op.WallMs, op.IOTotal)
			if op.Invocations > 0 || op.CacheHits > 0 || op.CacheMisses > 0 {
				fmt.Fprintf(&sb, " inv=%d cache=%d/%d", op.Invocations,
					op.CacheHits, op.CacheHits+op.CacheMisses)
			}
			sb.WriteByte('\n')
		}
	}
	if b.Pass {
		sb.WriteString("PASS: profiled runs match unprofiled results and charged costs exactly\n")
	} else {
		sb.WriteString("FAIL: profiling changed results or charged costs\n")
	}
	return sb.String()
}
