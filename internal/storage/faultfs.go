package storage

// Deterministic storage fault injection: a FaultInjector sits under the
// buffer pool and heap files (hooked into Disk.ReadPage/WritePage) and fails
// page I/Os on demand — the Nth read or write of a run, or each I/O with a
// seeded probability. Injection is deterministic in the sequence of I/O
// calls: the same seed and the same call sequence produce the same faults,
// so error-path tests are reproducible. Under concurrent sessions the call
// *order* may vary between runs, but every decision is still drawn from the
// same seeded stream, so sweeps assert outcomes ("wrapped error or clean
// rows"), not specific fault sites.
//
// A failed I/O is not charged to the accountant: the page never transferred.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjectedFault is the sentinel wrapped by every injected I/O failure.
// Callers detect injected faults with errors.Is.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultConfig selects which I/Os fail. Zero values disable each trigger; a
// zero config injects nothing (but still counts I/Os, which sweeps use to
// size FailReadN against a query's real read count).
type FaultConfig struct {
	// Seed drives the probabilistic triggers (ReadProb/WriteProb).
	Seed int64
	// FailReadN fails the Nth page read of the run (1-based; 0 = disabled).
	FailReadN int64
	// FailWriteN fails the Nth page write of the run (1-based; 0 = disabled).
	FailWriteN int64
	// ReadProb fails each page read with this probability.
	ReadProb float64
	// WriteProb fails each page write with this probability.
	WriteProb float64
}

// FaultInjector implements FaultConfig over a mutex-guarded seeded stream.
// Safe for concurrent use.
type FaultInjector struct {
	mu       sync.Mutex
	cfg      FaultConfig
	rng      *rand.Rand
	reads    int64
	writes   int64
	injected int64
}

// NewFaultInjector creates an injector for one run of cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts reports the I/Os observed and the faults injected so far.
func (fi *FaultInjector) Counts() (reads, writes, injected int64) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.reads, fi.writes, fi.injected
}

// beforeRead is consulted by Disk.ReadPage before performing a read; a
// non-nil return fails the read.
func (fi *FaultInjector) beforeRead(f FileID, p PageID) error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.reads++
	if fi.cfg.FailReadN > 0 && fi.reads == fi.cfg.FailReadN {
		fi.injected++
		return fmt.Errorf("read %d of file %d page %d: %w", fi.reads, f, p, ErrInjectedFault)
	}
	if fi.cfg.ReadProb > 0 && fi.rng.Float64() < fi.cfg.ReadProb {
		fi.injected++
		return fmt.Errorf("read %d of file %d page %d (probabilistic): %w", fi.reads, f, p, ErrInjectedFault)
	}
	return nil
}

// beforeWrite is consulted by Disk.WritePage before performing a write; a
// non-nil return fails the write.
func (fi *FaultInjector) beforeWrite(f FileID, p PageID) error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.writes++
	if fi.cfg.FailWriteN > 0 && fi.writes == fi.cfg.FailWriteN {
		fi.injected++
		return fmt.Errorf("write %d of file %d page %d: %w", fi.writes, f, p, ErrInjectedFault)
	}
	if fi.cfg.WriteProb > 0 && fi.rng.Float64() < fi.cfg.WriteProb {
		fi.injected++
		return fmt.Errorf("write %d of file %d page %d (probabilistic): %w", fi.writes, f, p, ErrInjectedFault)
	}
	return nil
}
