package main

// Spans recorded around the benchmark's calls into each layer's exported
// functions. A nil *tracer records nothing, so the untraced run pays one
// nil check per call site.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one statement share Stmt; Parent is the
// index of the enclosing span in the tracer, or -1.
type span struct {
	Stmt   int64  `json:"stmt"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// stmtID returns a fresh statement id.
func (t *tracer) stmtID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(stmt int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Stmt: stmt, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// computeSelf fills each span's self time: its duration minus the part of
// it that its children's intervals cover.
func (t *tracer) computeSelf() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		open := false
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curE {
				curE = max(curE, hi)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = lo, hi, true
		}
		if open {
			covered += curE - curS
		}
		s.Self = s.End - s.Start - covered
	}
}

// spanTotals is the per-name aggregate of a trace.
type spanTotals struct {
	Count        int
	Total, Self  time.Duration
	durationsSec []float64
}

func (t *tracer) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &spanTotals{}
			out[s.Name] = a
		}
		a.Count++
		a.Total += time.Duration(s.End - s.Start)
		a.Self += time.Duration(s.Self)
		a.durationsSec = append(a.durationsSec, float64(s.End-s.Start)/1e9)
	}
	return out
}

// write stores the spans as JSON under dir and returns the file name.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, b, 0o644)
}
