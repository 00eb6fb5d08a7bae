package harness

// The fault sweep: every benchmark query runs under injected storage read
// faults and under an aggressive deadline, at width 1 and at the default
// batch width. The contract under
// test is the executor's failure discipline, not the paper's figures: each
// run must end in exactly one of the acceptable outcomes — a clean result
// identical to the fault-free baseline, an error wrapping the injected
// fault, a DNF, or a deadline error — never a panic, a hang, or a silently
// truncated result. After every run, faulted or not, the leak audit asserts
// zero pinned buffer-pool frames and the goroutine baseline restored.
// Fault and timeout runs are excluded from every figure reproduction.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"predplace"
)

// faultConfigs are the batch widths the sweep crosses faults with: 1
// ("tuple") and 0 ("batch", the tuned default).
var faultConfigs = []struct {
	name      string
	batchSize int
}{
	{"tuple", 1},
	{"batch", 0},
}

// FaultRun is one query execution under injected faults or a deadline.
type FaultRun struct {
	Query     string `json:"query"`
	Config    string `json:"config"`
	Seed      int64  `json:"seed"`
	FailReadN int64  `json:"fail_read_n,omitempty"`
	// Outcome is "clean", "fault", "dnf", or "timeout".
	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"`
	// OK is false when the run violated the failure contract (wrong rows,
	// unexpected error class, or a leak).
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// FaultBench is the whole sweep's outcome.
type FaultBench struct {
	Scale float64    `json:"scale"`
	Seeds int        `json:"seeds"`
	Runs  []FaultRun `json:"runs"`
	// Pass is true when every run ended in an acceptable outcome with no
	// leaked frames or goroutines.
	Pass bool `json:"pass"`
}

// faultTimeout is the deadline of the sweep's timeout leg — short enough
// that large queries trip it, but a query finishing first is also a valid
// outcome (the leg asserts the error class and teardown, not that the
// deadline always fires).
const faultTimeout = 2 * time.Millisecond

// RunFaultBench sweeps Queries 1–5 under injected read faults and a
// deadline. For each query it first measures the fault-free read count and
// result set (the baseline), then for each seed derives a read index to
// fail and runs the query under every executor configuration, and finally
// runs one timeout leg per configuration. seeds is the number of per-query
// fault sites tried.
func (h *Harness) RunFaultBench(seeds int) (*FaultBench, error) {
	if seeds < 1 {
		seeds = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	defer h.DB.SetFaults(nil)
	defer h.DB.SetTimeout(0)
	defer h.DB.SetBatchSize(0)

	bench := &FaultBench{Scale: h.Scale, Seeds: seeds, Pass: true}
	for _, q := range benchQueries {
		// Fault-free baseline: a zero FaultConfig injects nothing but counts
		// I/Os, sizing the fault sites against the query's real read count.
		h.DB.SetTimeout(0)
		h.DB.SetBatchSize(0)
		// Faults fire on physical reads only; start cold so every page read
		// of the query is observable (and the fault site space is the full
		// read sequence, reproducible run to run).
		if err := h.DB.EvictPool(); err != nil {
			return nil, fmt.Errorf("%s baseline: %w", q.name, err)
		}
		h.DB.SetFaults(&predplace.FaultConfig{})
		base, err := h.DB.Query(q.sql, predplace.Migration)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", q.name, err)
		}
		reads, _, _ := h.DB.FaultCounts()
		h.DB.SetFaults(nil)
		if reads == 0 {
			return nil, fmt.Errorf("%s baseline: no page reads observed", q.name)
		}
		baseRows := canonicalRows(base)

		for seed := int64(1); seed <= int64(seeds); seed++ {
			// The fault site is drawn deterministically per (query, seed), so
			// a failing sweep is reproducible from its report alone.
			failN := 1 + rand.New(rand.NewSource(seed*7919)).Int63n(reads)
			for _, cfg := range faultConfigs {
				run := h.faultRun(q.name, q.sql, cfg.name, seed, failN, cfg.batchSize, baseRows)
				if !run.OK {
					bench.Pass = false
				}
				bench.Runs = append(bench.Runs, run)
			}
		}
		for _, cfg := range faultConfigs {
			run := h.timeoutRun(q.name, q.sql, cfg.name, cfg.batchSize, baseRows)
			if !run.OK {
				bench.Pass = false
			}
			bench.Runs = append(bench.Runs, run)
		}
	}
	return bench, nil
}

// faultRun executes one query under an injected read fault and classifies
// the outcome against the failure contract.
func (h *Harness) faultRun(name, sql, cfg string, seed, failN int64,
	batchSize int, baseRows []string) FaultRun {
	run := FaultRun{Query: name, Config: cfg, Seed: seed, FailReadN: failN}
	h.DB.SetTimeout(0)
	h.DB.SetBatchSize(batchSize)
	// Cold start before arming the injector: eviction's own write-backs must
	// not consume fault sites, and the run's physical read sequence must
	// match the baseline's so failN lands on the same page access.
	if err := h.DB.EvictPool(); err != nil {
		run.Outcome = "unexpected"
		run.Err = err.Error()
		run.Detail = "pool eviction before fault run failed"
		return run
	}
	h.DB.SetFaults(&predplace.FaultConfig{Seed: seed, FailReadN: failN})
	audit := StartLeakAudit()
	res, err := h.DB.Query(sql, predplace.Migration)
	h.DB.SetFaults(nil)
	classifyFaultOutcome(&run, res, err, baseRows)
	if lerr := audit.Verify(h.DB); lerr != nil {
		run.OK = false
		run.Detail = strings.TrimSpace(run.Detail + " " + lerr.Error())
	}
	return run
}

// timeoutRun executes one query under an aggressive deadline; a clean
// finish and a deadline error are both acceptable, anything else is not.
func (h *Harness) timeoutRun(name, sql, cfg string, batchSize int, baseRows []string) FaultRun {
	run := FaultRun{Query: name, Config: cfg + "/timeout"}
	h.DB.SetBatchSize(batchSize)
	h.DB.SetTimeout(faultTimeout)
	audit := StartLeakAudit()
	res, err := h.DB.Query(sql, predplace.Migration)
	h.DB.SetTimeout(0)
	switch {
	case err == nil && !res.DNF:
		run.Outcome = "clean"
		run.OK = slices.Equal(canonicalRows(res), baseRows)
		if !run.OK {
			run.Detail = "clean finish with wrong rows"
		}
	case errors.Is(err, context.DeadlineExceeded):
		run.Outcome = "timeout"
		run.OK = true
		run.Err = err.Error()
	default:
		run.Outcome = "unexpected"
		run.OK = false
		if err != nil {
			run.Err = err.Error()
		}
		run.Detail = "timeout leg must finish cleanly or exceed the deadline"
	}
	if lerr := audit.Verify(h.DB); lerr != nil {
		run.OK = false
		run.Detail = strings.TrimSpace(run.Detail + " " + lerr.Error())
	}
	return run
}

// classifyFaultOutcome sorts a fault run's (result, error) into the
// contract's outcome classes.
func classifyFaultOutcome(run *FaultRun, res *predplace.Result, err error, baseRows []string) {
	switch {
	case err == nil && res.DNF:
		// Unreachable without a budget, but a DNF is a legal abort outcome.
		run.Outcome = "dnf"
		run.OK = true
	case err == nil:
		run.Outcome = "clean"
		run.OK = slices.Equal(canonicalRows(res), baseRows)
		if !run.OK {
			run.Detail = "clean finish with rows differing from fault-free baseline"
		}
	case errors.Is(err, predplace.ErrInjectedFault):
		run.Outcome = "fault"
		run.OK = true
		run.Err = err.Error()
	default:
		run.Outcome = "unexpected"
		run.OK = false
		run.Err = err.Error()
		run.Detail = "error does not wrap the injected fault"
	}
}

// JSON renders the sweep as indented JSON (BENCH_faults.json).
func (b *FaultBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the sweep as an aligned table.
func (b *FaultBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault/timeout sweep: scale=%.3g seeds=%d (Migration, caching off)\n",
		b.Scale, b.Seeds)
	fmt.Fprintf(&sb, "%-8s %-16s %5s %10s %-8s %7s\n",
		"query", "config", "seed", "fail-read", "outcome", "verdict")
	for _, r := range b.Runs {
		verdict := "OK"
		if !r.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "%-8s %-16s %5d %10d %-8s %7s\n",
			r.Query, r.Config, r.Seed, r.FailReadN, r.Outcome, verdict)
		if r.Detail != "" {
			fmt.Fprintf(&sb, "    %s\n", r.Detail)
		}
	}
	if b.Pass {
		sb.WriteString("PASS: every run ended in an accepted outcome with no leaks\n")
	} else {
		sb.WriteString("FAIL: failure contract violated\n")
	}
	return sb.String()
}
