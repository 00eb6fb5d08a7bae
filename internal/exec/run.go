package exec

import (
	"errors"
	"fmt"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// Result is an executed query's output.
type Result struct {
	// Cols names the output columns.
	Cols []string
	// Rows holds the result rows (nil when Env.CountOnly).
	Rows []expr.Row
	// Stats reports resource consumption.
	Stats Stats
	// DNF is set when the charged-cost budget aborted the query; Stats then
	// reflects consumption up to the abort.
	DNF bool
	// NodeRows maps plan nodes to the number of rows they actually produced
	// (accumulated across nested-loop rescans) — EXPLAIN ANALYZE's data.
	// With Env.Profile on every plan node has an entry (nodes the data flow
	// never reached report 0); with it off, only nodes the executor built.
	NodeRows map[plan.Node]int64
	// Profile is the per-operator runtime profile tree (nil unless
	// Env.Profile was on).
	Profile *OpProfile
}

// collectTrace snapshots the per-node row counters.
func collectTrace(e *Env) map[plan.Node]int64 {
	out := make(map[plan.Node]int64, len(e.trace))
	for n, c := range e.trace {
		out[n] = *c
	}
	return out
}

// Run executes a plan tree to completion, resetting the Env's per-query
// state first (each query is measured in isolation). With Env.Validate set
// (the facade snapshots PPLINT_VALIDATE at Open), the plan tree is checked
// against the structural invariants of plan.Validate before any execution.
func Run(e *Env, root plan.Node) (*Result, error) {
	if e.Validate {
		if err := plan.Validate(root); err != nil {
			return nil, fmt.Errorf("exec: refusing to run invalid plan: %w", err)
		}
	}
	e.begin()
	if e.prof != nil {
		// Pre-register every plan node's counters so the profile and
		// NodeRows cover the whole tree — including subtrees the data flow
		// never builds (an empty outer's nested-loop inner, the probe-driven
		// inner chain of an index nested loop). An unreached node truthfully
		// reports 0 rows instead of being absent ("actual=n/a").
		plan.Walk(root, func(n plan.Node) {
			e.nodeCounter(n)
			e.nodeProf(n)
		})
	}
	res := &Result{}
	for _, c := range root.Cols() {
		res.Cols = append(res.Cols, c.String())
	}
	if e.Transfer {
		// Predicate-transfer prepass: build and exchange the join graph's
		// Bloom filters before the main plan runs. A budget abort here is
		// the same measurement outcome as one mid-query (DNF below);
		// cancellation and injected faults surface as errors, as always.
		if err := e.runTransferPrepass(root); err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				res.DNF = true
				res.Stats = e.finish(0)
				res.NodeRows = collectTrace(e)
				if e.prof != nil {
					res.Profile = assembleProfile(e, root)
				}
				return res, nil
			}
			return nil, err
		}
	}
	it, err := Build(e, root)
	if err != nil {
		return nil, err
	}
	rows, err := pump(e, it, res)
	cerr := it.Close()
	if errors.Is(err, ErrBudgetExceeded) {
		// The abort is the measurement (the paper's "did not finish"); a
		// Close failure after it would still be a real engine error.
		// Cancellation and injected faults are NOT folded into DNF — they
		// surface as wrapped errors (the abort is an outcome of the run, not
		// part of the measurement).
		res.DNF = true
		err = nil
	}
	if err := errors.Join(err, cerr); err != nil {
		return nil, err
	}
	res.Stats = e.finish(rows)
	res.NodeRows = collectTrace(e)
	if e.prof != nil {
		res.Profile = assembleProfile(e, root)
	}
	return res, nil
}

// pump opens the iterator and drains it into res in batches of the Env's
// width, returning the number of rows produced. The caller owns closing
// the iterator.
func pump(e *Env, it Iterator, res *Result) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	rows := 0
	buf := getRowBuf(e.batchSize())
	defer putRowBuf(buf)
	for {
		n, err := it.NextBatch(buf)
		if err != nil {
			return rows, err
		}
		if n == 0 {
			return rows, nil
		}
		rows += n
		if !e.CountOnly {
			res.Rows = append(res.Rows, buf[:n]...)
		}
	}
}

// MatchingTIDs scans a base table and returns the tuple ids of rows
// satisfying every predicate — the lookup side of DML (DELETE). Predicates
// are evaluated in the given order with the usual caching behaviour.
func MatchingTIDs(e *Env, tableName string, preds []*query.Predicate) ([]storage.TID, error) {
	tab, err := e.Cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	cols := make([]query.ColRef, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = query.ColRef{Table: tableName, Col: c.Name}
	}
	compiled, err := compilePreds(preds, cols)
	if err != nil {
		return nil, err
	}
	var out []storage.TID
	it := e.heap(tab).Scan()
	defer it.Close()
	count := 0
	for {
		rec, tid, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		count++
		if count%1024 == 0 {
			if err := e.checkAbort(); err != nil {
				return nil, err
			}
		}
		row, err := tab.Codec.Decode(rec)
		if err != nil {
			return nil, err
		}
		keep := true
		for _, cp := range compiled {
			pass, err := cp.holds(e, row)
			if err != nil {
				return nil, err
			}
			if !pass {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, tid)
		}
	}
}
