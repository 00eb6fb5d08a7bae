package main

// The correctness oracle. Every measured execution leaves a record (row
// multiset hash, row count, charged cost); after the timed window the
// distinct statements are re-run on a separate handle with the plan cache
// off: PushDown gives the reference rows, independent of the measured plan,
// and the measured algorithm gives the reference charged cost. Any record
// that disagrees counts as a failed statement.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"time"

	"predplace"
	"predplace/internal/expr"
)

// stmtDeadline bounds every statement the benchmark runs.
const stmtDeadline = 10 * time.Second

// rowHasher computes an order-independent hash of a row multiset: the sum
// of per-row hashes, each over the row's values in column-name order (a
// SELECT * result lists columns in plan order, which differs between
// plans). Hashes are only compared within one process, so the random
// maphash seed is fine.
type rowHasher struct {
	h   maphash.Hash
	buf [9]byte
}

var hashSeed = maphash.MakeSeed()

func newRowHasher() *rowHasher {
	r := &rowHasher{}
	r.h.SetSeed(hashSeed)
	return r
}

func (r *rowHasher) null() {
	r.buf[0] = 0
	r.h.Write(r.buf[:1])
}

func (r *rowHasher) int(v int64) {
	r.buf[0] = 1
	binary.LittleEndian.PutUint64(r.buf[1:], uint64(v))
	r.h.Write(r.buf[:])
}

func (r *rowHasher) str(s string) {
	r.buf[0] = 2
	binary.LittleEndian.PutUint64(r.buf[1:], uint64(len(s)))
	r.h.Write(r.buf[:])
	//pplint:ignore errdrop maphash.Hash.WriteString always returns a nil error
	r.h.WriteString(s)
}

// byName returns the column positions in column-name order and the hash
// of the sorted names, which seeds the multiset sum.
func (r *rowHasher) byName(cols []string) ([]int, uint64) {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
	r.h.Reset()
	for _, i := range order {
		r.str(cols[i])
	}
	return order, r.h.Sum64()
}

// values hashes result rows as the facade returns them.
func (r *rowHasher) values(cols []string, rows [][]predplace.Value) uint64 {
	order, sum := r.byName(cols)
	for _, row := range rows {
		r.h.Reset()
		for _, i := range order {
			v := row[i]
			switch {
			case v.IsNull():
				r.null()
			case v.Kind == expr.TString:
				r.str(v.S)
			default:
				r.int(v.I)
			}
		}
		sum += r.h.Sum64()
	}
	return sum
}

// jsonRows hashes rows decoded from a /query response (numbers kept as
// json.Number), matching values() for the same data.
func (r *rowHasher) jsonRows(cols []string, rows [][]any) (uint64, error) {
	order, sum := r.byName(cols)
	for _, row := range rows {
		if len(row) != len(cols) {
			return 0, fmt.Errorf("row of %d values under %d columns", len(row), len(cols))
		}
		r.h.Reset()
		for _, i := range order {
			switch x := row[i].(type) {
			case nil:
				r.null()
			case string:
				r.str(x)
			case json.Number:
				n, err := strconv.ParseInt(string(x), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("non-integer number %q in response", x)
				}
				r.int(n)
			default:
				return 0, fmt.Errorf("unexpected JSON value %T in response", x)
			}
		}
		sum += r.h.Sum64()
	}
	return sum, nil
}

// outcome is what the oracle compares: of one execution, or a distinct
// statement's reference.
type outcome struct {
	rowHash uint64
	rows    int
	charged float64
}

// maxChargedRuns caps how many statements the oracle re-runs under their
// own algorithm: a workload whose statements never repeat has hundreds,
// and the PushDown run that checks rows must cover every one of them.
const maxChargedRuns = 150

// references runs each distinct statement on a fresh handle opened with
// cfg and the plan cache off. The returned reference holds PushDown's rows
// and, for up to maxChargedRuns evenly spaced statements, the statement's
// own algorithm's charged cost (-1 where not re-run: only a statement's
// repeats then check its charged cost). A statement whose PushDown and
// own-algorithm rows differ is reported as a problem.
func references(cfg predplace.Config, stmts []stmt) ([]outcome, []string, error) {
	cfg.PlanCacheSize = -1
	db, err := predplace.Open(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle handle: %w", err)
	}
	h := newRowHasher()
	refs := make([]outcome, len(stmts))
	var problems []string
	stride := (len(stmts) + maxChargedRuns - 1) / maxChargedRuns
	for i, s := range stmts {
		pd, err := query(db, s.SQL, predplace.PushDown)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle PushDown %q: %w", s.SQL, err)
		}
		refs[i] = outcome{rowHash: h.values(pd.Cols, pd.Rows), rows: len(pd.Rows), charged: -1}
		if i%stride != 0 {
			continue
		}
		own, err := query(db, s.SQL, s.Algo)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle %s %q: %w", s.Algo, s.SQL, err)
		}
		refs[i].charged = own.Stats.Charged()
		if h.values(own.Cols, own.Rows) != refs[i].rowHash {
			problems = append(problems, fmt.Sprintf("%s and PushDown rows differ on the oracle handle: %s", s.Algo, s.SQL))
		}
	}
	return refs, problems, nil
}

// query runs one statement under the benchmark's statement deadline.
func query(db *predplace.DB, sql string, algo predplace.Algorithm) (*predplace.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), stmtDeadline)
	defer cancel()
	res, err := db.QueryContext(ctx, sql, algo)
	if err == nil && res.DNF {
		err = fmt.Errorf("did not finish")
	}
	return res, err
}

// verify compares one execution with its statement's reference ref and
// returns a description of the first difference, or "".
func (ref outcome) verify(o outcome) string {
	switch {
	case o.rows != ref.rows:
		return fmt.Sprintf("%d rows, want %d", o.rows, ref.rows)
	case o.rowHash != ref.rowHash:
		return "row multiset differs from the PushDown reference"
	case ref.charged >= 0 && o.charged != ref.charged:
		return fmt.Sprintf("charged %.17g, want %.17g", o.charged, ref.charged)
	}
	return ""
}
