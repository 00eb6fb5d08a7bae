package exec

import (
	"math/rand"
	"testing"

	"predplace/internal/expr"
)

// TestBloomNoFalseNegatives pins the filter's one hard guarantee: every
// added key tests positive.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int64{1, 100, 10000} {
		f := newBloomFilter(n)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = keyHash(expr.I(rng.Int63()))
		}
		f.AddBatch(keys)
		for i, h := range keys {
			if !f.Test(h) {
				t.Fatalf("n=%d: added key %d tests negative", n, i)
			}
		}
	}
}

// TestBloomFPRateWithinAnalyticBound is the property test: the measured
// false-positive rate over a large non-member probe set must stay within a
// small multiple of the analytic estimate. Blocked filters concentrate bits
// per 512-bit block, so they run above the classic bound — 3x plus a small
// absolute floor is the accepted envelope (DESIGN.md §16).
func TestBloomFPRateWithinAnalyticBound(t *testing.T) {
	const (
		members = 10000
		probes  = 200000
	)
	f := newBloomFilter(members)
	seen := make(map[uint64]bool, members)
	for i := int64(0); i < members; i++ {
		h := keyHash(expr.I(i))
		seen[h] = true
		f.Add(h)
	}
	est := f.EstFPRate()
	if est <= 0 || est >= 1 {
		t.Fatalf("EstFPRate = %g, want in (0,1)", est)
	}
	fp := 0
	for i := int64(0); i < probes; i++ {
		h := keyHash(expr.I(members + 1 + i*7919))
		if seen[h] {
			continue
		}
		if f.Test(h) {
			fp++
		}
	}
	actual := float64(fp) / float64(probes)
	limit := 3*est + 0.002
	if actual > limit {
		t.Errorf("measured FP rate %.5f exceeds envelope %.5f (analytic est %.5f)", actual, limit, est)
	}
}

// TestBloomBatchMatchesScalar pins TestBatch to the scalar path: same
// verdicts, probe count excludes rows already rejected.
func TestBloomBatchMatchesScalar(t *testing.T) {
	f := newBloomFilter(64)
	for i := int64(0); i < 64; i += 2 {
		f.Add(keyHash(expr.I(i)))
	}
	hs := make([]uint64, 128)
	keep := make([]bool, 128)
	for i := range hs {
		hs[i] = keyHash(expr.I(int64(i)))
		keep[i] = i%3 != 0 // every third row pre-rejected by an earlier filter
	}
	wantProbes := 0
	want := make([]bool, 128)
	for i := range hs {
		if keep[i] {
			wantProbes++
			want[i] = f.Test(hs[i])
		}
	}
	probes := f.TestBatch(hs, keep)
	if probes != wantProbes {
		t.Errorf("TestBatch probes = %d, want %d", probes, wantProbes)
	}
	for i := range keep {
		if keep[i] != want[i] {
			t.Errorf("row %d: keep = %v, want %v", i, keep[i], want[i])
		}
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	f := newBloomFilter(int64(b.N))
	hs := make([]uint64, 4096)
	for i := range hs {
		hs[i] = splitmix64(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(hs[i&4095])
	}
}

func BenchmarkBloomTestBatch(b *testing.B) {
	const batch = 256
	f := newBloomFilter(100000)
	for i := uint64(0); i < 100000; i++ {
		f.Add(splitmix64(i))
	}
	hs := make([]uint64, batch)
	keep := make([]bool, batch)
	for i := range hs {
		hs[i] = splitmix64(uint64(i * 3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keep {
			keep[j] = true
		}
		f.TestBatch(hs, keep)
	}
}
