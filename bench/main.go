// Command bench is the repository's benchmark: it runs one named workload
// against the public API of predplace for a fixed time, checks every
// statement's output against an oracle, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run). The last
// line of standard output is a JSON verdict:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with bench/run.sh; workloads.json holds
// each workload's record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"predplace"
)

// runDeadline bounds a whole run; past it the run is a failure with a
// verdict, never a hang.
const runDeadline = 170 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median and the last set-up serves the measured window.
const setupRepeats = 3

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is a finished run: its verdict counters and the metrics to print.
type result struct {
	attempted, failed int
	problems          []string
	metrics           metrics
	report            []string
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name from workloads.json")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	spec, err := findSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %s\n", runDeadline)
		printVerdict(false, 1, 1, metrics{})
		os.Exit(3)
	})
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var res *result
	if spec.Loop == "open" {
		res, err = runServer(spec, opts)
	} else {
		res, err = runLocal(spec, opts)
	}
	if !watchdog.Stop() {
		select {} // the watchdog is printing its verdict and exiting
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	correct := res.failed == 0 && len(res.problems) == 0
	printVerdict(correct, res.attempted, res.failed, res.metrics)
	if !correct {
		return 1
	}
	return 0
}

func printVerdict(correct bool, attempted, failed int, m metrics) {
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		b = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Println(string(b))
}

// window is what one timed window measured.
type window struct {
	latMs   []float64 // every attempted statement, failures included
	busy    time.Duration
	charged []float64 // every executed query
	failed  int
	mem     memDelta
}

type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

type memSnap struct{ m runtime.MemStats }

func snapMem() memSnap {
	var s memSnap
	runtime.ReadMemStats(&s.m)
	return s
}

func (s memSnap) since(prev memSnap) memDelta {
	return memDelta{
		allocBytes: s.m.TotalAlloc - prev.m.TotalAlloc,
		gcCycles:   s.m.NumGC - prev.m.NumGC,
		gcPauseNs:  s.m.PauseTotalNs - prev.m.PauseTotalNs,
	}
}

// liveHeapMB is the heap in use after full collections; the second one
// also frees what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(setups []time.Duration, w *window, liveMB float64) metrics {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	n := float64(len(w.latMs))
	m := metrics{}
	m.set("setup_s", median(secs), "s")
	m.set("throughput_qps", n/w.busy.Seconds(), "1/s")
	m.set("latency_p50_ms", percentile(w.latMs, 50), "ms")
	m.set("latency_p90_ms", percentile(w.latMs, 90), "ms")
	m.set("charged_per_stmt", mean(w.charged), "io")
	m.set("alloc_mb_per_stmt", float64(w.mem.allocBytes)/(1<<20)/n, "MB")
	m.set("live_heap_mb", liveMB, "MB")
	m.set("success_rate", 1-float64(w.failed)/n, "ratio")
	return m
}

// describe renders metrics one per line, sorted by name.
func describe(title string, m metrics) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := []string{title}
	for _, k := range names {
		out = append(out, fmt.Sprintf("  %-36s %14.4f %s", k, m[k].Value, m[k].Unit))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// specLines renders the workload's record for the report.
func specLines(spec *Spec, o options) []string {
	loop := fmt.Sprintf("%s loop, %d client(s)", spec.Loop, spec.Clients)
	if spec.Loop == "open" {
		loop = fmt.Sprintf("open loop at %.1f stmt/s over %d sessions (%s)", spec.RateQPS, spec.Clients, spec.RateNote)
	}
	return []string{
		fmt.Sprintf("workload %s (seed %d, %s, trace %v)", spec.Name, o.seed, o.seconds, o.trace),
		"  " + spec.Why,
		"  " + loop + "; " + spec.API,
		fmt.Sprintf("  scale %g, pool_pages %d (%s), caching %v, algorithms %s",
			spec.Scale, spec.PoolPages, spec.PoolNote, spec.Caching, strings.Join(spec.Algorithms, "/")),
		"  loads: " + strings.Join(spec.Loads, ", "),
		"  bypasses: " + strings.Join(spec.Bypasses, ", "),
	}
}

// openConfig is the predplace configuration a workload runs with.
func openConfig(spec *Spec) predplace.Config {
	return predplace.Config{Scale: spec.Scale, PoolPages: spec.PoolPages, Caching: spec.Caching}
}
