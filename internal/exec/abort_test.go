package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// abortBatchSizes are the BatchSize settings every abort-path regression
// runs over: width 1 and the default width.
var abortBatchSizes = []int{1, 256}

// waitTeardown polls until the executor's teardown contract holds: zero
// pinned buffer-pool frames and the goroutine count back at (or below) the
// pre-query baseline. Goroutines may exit shortly after the query returns,
// so an instantaneous assertion would flake.
func waitTeardown(t *testing.T, env *Env, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		pinned := env.Pool.PinnedFrames()
		g := runtime.NumGoroutine()
		if pinned == 0 && g <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown leak: %d pinned frames, %d goroutines (baseline %d)",
				pinned, g, baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// costlyFilterPlan builds Filter(costly100(t1.u10), SeqScan(t1)) — enough
// work per row that a small budget aborts mid-stream.
func costlyFilterPlan(t *testing.T, env *Env) plan.Node {
	t.Helper()
	f, err := env.Cat.Func("costly100")
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(env.Cat, q)
	return &plan.Filter{Input: scanNode(t, env.Cat, "t1"), Pred: q.Preds[0]}
}

// TestBudgetAbortTeardownMatrix is the regression for budget aborts raised
// mid-stream: at every BatchSize the abort must fold into DNF, unpin every
// frame, and strand no pooled row buffers or goroutines.
func TestBudgetAbortTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	for _, bs := range abortBatchSizes {
		env.BatchSize = bs
		env.Budget = 500 // a handful of 100-unit calls
		baseline := runtime.NumGoroutine()
		res, err := Run(env, root)
		if err != nil {
			t.Fatalf("BS=%d: %v", bs, err)
		}
		if !res.DNF {
			t.Fatalf("BS=%d: budget abort should report DNF", bs)
		}
		waitTeardown(t, env, baseline)
	}
	env.BatchSize, env.Budget = 0, 0
}

// TestCancelTeardownMatrix runs the same grid under an already-canceled
// context: Run must fail with an error reaching both ErrCanceled and
// context.Canceled, never DNF, and tear down cleanly.
func TestCancelTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env.Ctx = ctx
	for _, bs := range abortBatchSizes {
		env.BatchSize = bs
		baseline := runtime.NumGoroutine()
		_, err := Run(env, root)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("BS=%d: want ErrCanceled wrapping context.Canceled, got %v", bs, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.BatchSize = nil, 0
}

// TestDeadlineTeardownMatrix covers the deadline flavor: an expired
// deadline surfaces as context.DeadlineExceeded through ErrCanceled.
func TestDeadlineTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	env.Ctx = ctx
	for _, bs := range abortBatchSizes {
		env.BatchSize = bs
		baseline := runtime.NumGoroutine()
		_, err := Run(env, root)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("BS=%d: want ErrCanceled wrapping DeadlineExceeded, got %v", bs, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.BatchSize = nil, 0
}

// TestCancelDuringJoin cancels mid-join (hash build past the 1024-row
// cadence) to exercise the join operators' abort paths at width 1 and at
// the default width.
func TestCancelDuringJoin(t *testing.T) {
	db, env := newEnv(t, []int{1, 9}, false)
	q, err := query.NewQuery([]string{"t1", "t9"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t9", Col: "ua1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t9")
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env.Ctx = ctx
	for _, bs := range abortBatchSizes {
		env.BatchSize = bs
		baseline := runtime.NumGoroutine()
		_, err := Run(env, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("BS=%d: want context.Canceled, got %v", bs, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.BatchSize = nil, 0
}
