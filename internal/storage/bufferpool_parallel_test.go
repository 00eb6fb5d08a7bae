package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestBufferPoolSingleflight has many goroutines fault the same cold page at
// once: the in-flight read registry must coalesce them into ONE physical
// read (run under -race to also check the synchronization).
func TestBufferPoolSingleflight(t *testing.T) {
	d, bp := newTestPool(4)
	h := NewHeapFile(bp)
	if _, err := h.Insert([]byte("singleflight-record")); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	d.Accountant().Reset()
	bp.ResetCounters()

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pg, err := bp.Fetch(h.FileID(), 0)
			if err != nil {
				errs <- err
				return
			}
			if _, ok := pg.Get(0); !ok {
				errs <- fmt.Errorf("fetched page lost its record")
			}
			bp.Unpin(h.FileID(), 0, false)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := d.Accountant().Stats()
	if reads := st.SeqReads + st.RandReads; reads != 1 {
		t.Fatalf("%d concurrent faults did %d physical reads, want 1", goroutines, reads)
	}
	hits, misses := bp.HitRate()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
}

// TestShardedBufferPoolServesAllPages checks a sharded pool returns correct
// data for every page, including under eviction pressure (capacity smaller
// than the file).
func TestShardedBufferPoolServesAllPages(t *testing.T) {
	d := NewDisk(nil)
	bp := NewShardedBufferPool(d, 6, 4)
	if got := bp.Shards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	h := NewHeapFile(bp)
	var tids []TID
	for i := 0; i < 2000; i++ {
		rec := []byte(fmt.Sprintf("sharded-%04d-%s", i, "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"))
		tid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if h.NumPages() <= 6 {
		t.Fatalf("need more pages (%d) than pool capacity to exercise eviction", h.NumPages())
	}
	for i, tid := range tids {
		want := []byte(fmt.Sprintf("sharded-%04d-%s", i, "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"))
		got, err := h.Get(tid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) = %q, %v", tid, got, err)
		}
	}
}

// TestShardedBufferPoolClampsShards verifies the shard count never exceeds
// the capacity (every shard needs at least one frame).
func TestShardedBufferPoolClampsShards(t *testing.T) {
	d := NewDisk(nil)
	bp := NewShardedBufferPool(d, 2, 16)
	if got := bp.Shards(); got != 2 {
		t.Fatalf("shards = %d, want 2 (clamped to capacity)", got)
	}
	if bp := NewShardedBufferPool(d, 8, 0); bp.Shards() != 1 {
		t.Fatalf("shards = %d, want 1 (clamped up)", bp.Shards())
	}
}

// TestShardedBufferPoolConcurrentScan hammers a sharded pool from many
// goroutines scanning disjoint page ranges (concurrent sessions scanning
// different tables) under -race.
func TestShardedBufferPoolConcurrentScan(t *testing.T) {
	d := NewDisk(nil)
	bp := NewShardedBufferPool(d, 8, 4)
	h := NewHeapFile(bp)
	for i := 0; i < 2000; i++ {
		rec := []byte(fmt.Sprintf("conc-%05d-%s", i, "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"))
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	n := h.NumPages()
	const workers = 4
	counts := make([]int, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			it := h.ScanRange(lo, hi)
			defer it.Close()
			for {
				_, _, ok, err := it.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					return
				}
				counts[w]++
			}
		}(w, lo, hi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2000 {
		t.Fatalf("partitioned scans saw %d records, want 2000", total)
	}
}
