package exec

// Blocked Bloom filter for the predicate-transfer pre-filter pass (DESIGN.md
// §16). Each key touches exactly one cache-line-sized 512-bit block, chosen
// by the low bits of a single 64-bit hash; the k bit positions inside the
// block come from double hashing two further slices of the same hash, so one
// multiply-shift per key drives the whole probe. Stdlib-only, and both the
// Add and Test paths are allocation-free so batched scans keep the PR 3
// executor's alloc profile.
//
// Blocked filters trade a slightly worse false-positive rate (all k bits
// share 512 bits instead of the whole array) for one cache line per probe;
// EstFPRate reports the classic analytic bound, and the property test in
// bloom_test.go pins the measured rate to a small multiple of it.

import (
	"math"

	"predplace/internal/expr"
)

const (
	// bloomBlockBits is the bits per block: 512 = one 64-byte cache line.
	bloomBlockBits  = 512
	bloomBlockWords = bloomBlockBits / 64
	// bloomK is the number of bits set/tested per key.
	bloomK = 8
	// bloomBitsPerKey sizes a filter from its expected key count (~12 bits
	// per key ≈ 0.5% classic false-positive rate at k=8).
	bloomBitsPerKey = 12
	// bloomMaxBlocks caps one filter at 64 MiB regardless of the expected
	// key count (the filter degrades to a higher FP rate, never OOM).
	bloomMaxBlocks = 1 << 20
)

// bloomFilter is a blocked Bloom filter. Not safe for concurrent Add;
// concurrent Test against a finished filter is safe (reads only).
type bloomFilter struct {
	words     []uint64
	blockMask uint64
	adds      int64
}

// newBloomFilter sizes a filter for the expected number of distinct keys,
// rounding the block count up to a power of two so block selection is a
// single mask.
func newBloomFilter(expected int64) *bloomFilter {
	if expected < 1 {
		expected = 1
	}
	blocks := uint64(1)
	for blocks*bloomBlockBits < uint64(expected)*bloomBitsPerKey && blocks < bloomMaxBlocks {
		blocks <<= 1
	}
	return &bloomFilter{
		words:     make([]uint64, blocks*bloomBlockWords),
		blockMask: blocks - 1,
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// high-quality 64-bit mixer (every input bit affects every output bit).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyHash maps a join-key value to the single 64-bit hash both the Bloom
// filter and the hash join's chained table consume. Equal values
// (expr.Value.Equal) hash identically — the filter's no-false-negative
// guarantee and the join table's bucket choice both rest on that. Int and
// bool keys skip the FNV path entirely: the raw payload goes straight
// through the mixer. Its output is part of the transfer gate's record (Bloom
// bit positions decide which rows are pruned), so it must not change.
func keyHash(v expr.Value) uint64 {
	if v.Kind == expr.TInt || v.Kind == expr.TBool {
		return splitmix64(uint64(v.I) ^ uint64(v.Kind)<<56)
	}
	return splitmix64(v.Hash())
}

// Add sets the key's k bits in its block.
func (b *bloomFilter) Add(h uint64) {
	base := (h & b.blockMask) * bloomBlockWords
	g := uint32(h >> 17)
	d := uint32(h>>33) | 1
	for i := uint32(0); i < bloomK; i++ {
		bit := (g + i*d) & (bloomBlockBits - 1)
		b.words[base+uint64(bit>>6)] |= 1 << (bit & 63)
	}
	b.adds++
}

// Test reports whether the key may have been added (false positives
// possible, false negatives never).
func (b *bloomFilter) Test(h uint64) bool {
	base := (h & b.blockMask) * bloomBlockWords
	g := uint32(h >> 17)
	d := uint32(h>>33) | 1
	for i := uint32(0); i < bloomK; i++ {
		bit := (g + i*d) & (bloomBlockBits - 1)
		if b.words[base+uint64(bit>>6)]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// AddBatch adds a batch of key hashes.
func (b *bloomFilter) AddBatch(hs []uint64) {
	for _, h := range hs {
		b.Add(h)
	}
}

// TestBatch ANDs membership into keep: keep[i] stays true only if it was
// true and hs[i] passes the filter. Rows another filter already rejected are
// skipped, so the returned probe count is the number of tests actually
// performed (what the caller charges).
func (b *bloomFilter) TestBatch(hs []uint64, keep []bool) (probes int) {
	for i, h := range hs {
		if !keep[i] {
			continue
		}
		probes++
		if !b.Test(h) {
			keep[i] = false
		}
	}
	return probes
}

// EstFPRate is the classic analytic false-positive bound (1−e^(−kn/m))^k for
// the filter's current fill. Blocked filters run somewhat above it (bits
// concentrate in blocks); renderers label it as an estimate.
func (b *bloomFilter) EstFPRate() float64 {
	if b.adds == 0 {
		return 0
	}
	m := float64(len(b.words)) * 64
	n := float64(b.adds)
	return math.Pow(1-math.Exp(-float64(bloomK)*n/m), bloomK)
}
