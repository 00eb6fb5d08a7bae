package storage

import "fmt"

// HeapFile stores records of one table in an unordered sequence of slotted
// pages. Inserts fill the last page and allocate a new one when full (the
// benchmark load is append-only, matching the paper's bulk-loaded database).
type HeapFile struct {
	bp   *BufferPool
	file FileID
	// tr, when non-nil, is the running query's private I/O simulation: every
	// page pin and unpin this view performs is mirrored into it, charging the
	// query for the accesses that would have missed a cold private pool. The
	// zero value (catalog-held heap files) performs no per-query accounting;
	// queries access tables through WithTracker views.
	tr *IOTracker
}

// NewHeapFile creates a heap file backed by a fresh disk file.
func NewHeapFile(bp *BufferPool) *HeapFile {
	return &HeapFile{bp: bp, file: bp.disk.CreateFile()}
}

// WithTracker returns a view of the heap file whose page accesses are
// additionally recorded in tr (nil returns the untracked file itself). The
// view shares the underlying file and buffer pool; only accounting differs.
func (h *HeapFile) WithTracker(tr *IOTracker) *HeapFile {
	if tr == nil {
		return h
	}
	v := *h
	v.tr = tr
	return &v
}

// fetch pins page p through the shared pool, mirroring a successful pin into
// the query's I/O simulation.
func (h *HeapFile) fetch(p PageID) (*Page, error) {
	pg, err := h.bp.Fetch(h.file, p)
	if err == nil && h.tr != nil {
		h.tr.OnFetch(h.file, p)
	}
	return pg, err
}

// unpin releases one pin, mirroring it into the query's I/O simulation.
func (h *HeapFile) unpin(p PageID, dirty bool) {
	h.bp.Unpin(h.file, p, dirty)
	if h.tr != nil {
		h.tr.OnUnpin(h.file, p, dirty)
	}
}

// newPage allocates and pins a fresh page, mirroring the (resident, dirty)
// pin into the query's I/O simulation. The caller inherits the pin.
func (h *HeapFile) newPage() (PageID, *Page, error) {
	pid, pg, err := h.bp.NewPage(h.file)
	if err == nil && h.tr != nil {
		h.tr.OnNewPage(h.file, pid)
	}
	return pid, pg, err
}

// FileID returns the underlying disk file id.
func (h *HeapFile) FileID() FileID { return h.file }

// NumPages returns the current number of pages.
func (h *HeapFile) NumPages() int { return h.bp.disk.NumPages(h.file) }

// Insert appends rec and returns its TID.
func (h *HeapFile) Insert(rec []byte) (TID, error) {
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return TID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	n := h.NumPages()
	if n > 0 {
		last := PageID(n - 1)
		pg, err := h.fetch(last)
		if err != nil {
			return TID{}, err
		}
		if pg.HasSpace(len(rec)) {
			slot, err := pg.Insert(rec)
			h.unpin(last, err == nil)
			if err != nil {
				return TID{}, err
			}
			return TID{Page: last, Slot: slot}, nil
		}
		h.unpin(last, false)
	}
	pid, pg, err := h.newPage()
	if err != nil {
		return TID{}, err
	}
	slot, err := pg.Insert(rec)
	h.unpin(pid, err == nil)
	if err != nil {
		return TID{}, err
	}
	return TID{Page: pid, Slot: slot}, nil
}

// Get copies the record at tid into a fresh slice.
func (h *HeapFile) Get(tid TID) ([]byte, error) {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return nil, err
	}
	defer h.unpin(tid.Page, false)
	rec, ok := pg.Get(tid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no record at %s", tid)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// View calls fn with the record at tid while its page stays pinned,
// avoiding Get's defensive copy. The record bytes alias page memory and
// must not be retained after fn returns. Page I/O is accounted exactly as
// in Get (one Fetch, one Unpin).
func (h *HeapFile) View(tid TID, fn func(rec []byte) error) error {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return err
	}
	defer h.unpin(tid.Page, false)
	rec, ok := pg.Get(tid.Slot)
	if !ok {
		return fmt.Errorf("storage: no record at %s", tid)
	}
	return fn(rec)
}

// Scan returns an iterator over all live records in file order.
func (h *HeapFile) Scan() *HeapIter {
	return &HeapIter{h: h, page: 0, slot: 0, n: h.NumPages()}
}

// ScanRange returns an iterator over the live records of pages
// [start, end) in file order. Bounds are clamped to the file's current
// extent.
func (h *HeapFile) ScanRange(start, end int) *HeapIter {
	if n := h.NumPages(); end > n {
		end = n
	}
	if start < 0 {
		start = 0
	}
	if start > end {
		start = end
	}
	return &HeapIter{h: h, page: PageID(start), slot: 0, n: end}
}

// HeapIter iterates a heap file page by page, slot by slot. It pins one page
// at a time, producing sequential physical reads for cold scans.
type HeapIter struct {
	h       *HeapFile
	page    PageID
	slot    SlotID
	n       int
	cur     *Page
	curPage PageID
	done    bool
}

// Next returns the next live record and its TID, copying the record out of
// page memory. ok=false means the scan is exhausted (or an error occurred;
// see Err).
func (it *HeapIter) Next() (rec []byte, tid TID, ok bool, err error) {
	ref, tid, ok, err := it.NextRef()
	if !ok || err != nil {
		return nil, tid, ok, err
	}
	out := make([]byte, len(ref))
	copy(out, ref)
	return out, tid, true, nil
}

// NextRef returns the next live record without copying: the returned slice
// aliases the iterator's pinned page and is valid only until the next
// NextRef/Next/Close call. Batched scans decode straight from page memory
// through it, skipping the per-record copy Next performs.
func (it *HeapIter) NextRef() (rec []byte, tid TID, ok bool, err error) {
	if it.done {
		return nil, TID{}, false, nil
	}
	for {
		if it.cur == nil {
			if int(it.page) >= it.n {
				it.done = true
				return nil, TID{}, false, nil
			}
			pg, ferr := it.h.fetch(it.page)
			if ferr != nil {
				it.done = true
				return nil, TID{}, false, ferr
			}
			it.cur, it.curPage, it.slot = pg, it.page, 0
		}
		for int(it.slot) < it.cur.NumSlots() {
			rec, live := it.cur.Get(it.slot)
			s := it.slot
			it.slot++
			if live {
				return rec, TID{Page: it.curPage, Slot: s}, true, nil
			}
		}
		it.h.unpin(it.curPage, false)
		it.cur = nil
		it.page++
	}
}

// Close releases the iterator's pinned page, if any.
func (it *HeapIter) Close() {
	if it.cur != nil {
		it.h.unpin(it.curPage, false)
		it.cur = nil
	}
	it.done = true
}

// Delete marks the record at tid dead. Space is not compacted; scans skip
// dead slots.
func (h *HeapFile) Delete(tid TID) error {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return err
	}
	ok := pg.Delete(tid.Slot)
	h.unpin(tid.Page, ok)
	if !ok {
		return fmt.Errorf("storage: no record at %s", tid)
	}
	return nil
}
