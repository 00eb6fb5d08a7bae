package harness

// Leak auditing: the executor's teardown contract is that after any query —
// success, budget abort (DNF), cancellation, or injected storage fault — no
// buffer-pool frame stays pinned and no goroutine it started stays alive. The
// audit is stdlib-only: pinned frames come from the pool's own bookkeeping
// (DB.PinnedFrames) and goroutines from runtime.NumGoroutine against a
// baseline taken before the query.

import (
	"fmt"
	"runtime"
	"time"

	"predplace"
)

// leakPollBudget bounds how long Verify waits for asynchronous teardown:
// goroutines may exit shortly after the query returns, so the audit polls
// instead of asserting an instantaneous snapshot.
const leakPollBudget = 2 * time.Second

// LeakAudit captures the goroutine baseline ahead of one or more queries.
type LeakAudit struct {
	baseline int
}

// StartLeakAudit snapshots the current goroutine count. Take the snapshot
// before running the query under audit.
func StartLeakAudit() *LeakAudit {
	return &LeakAudit{baseline: runtime.NumGoroutine()}
}

// Verify asserts the teardown contract against db: zero pinned buffer-pool
// frames and a goroutine count back at (or below) the baseline. The check
// polls briefly before declaring a leak.
func (a *LeakAudit) Verify(db *predplace.DB) error {
	deadline := time.Now().Add(leakPollBudget)
	for {
		pinned := db.PinnedFrames()
		gor := runtime.NumGoroutine()
		if pinned == 0 && gor <= a.baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: leak after query: %d pinned frames, %d goroutines (baseline %d)",
				pinned, gor, a.baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
