package main

// The open-loop workload (server-ingest): two sessions send statements over
// loopback HTTP to Server.Handler on a fixed schedule, each on its own
// keep-alive connection; one session also inserts row batches into an
// indexed side table through DB.Insert.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"predplace"
)

const ingestTable = "ingest"

// traceHeader carries a read's statement id and client span to the
// server-side middleware.
const traceHeader = "X-Bench-Trace"

// op is one scheduled session step: a read of reads[read], an insert
// batch, or an idle slot.
type op struct{ read int }

const (
	insertOp = -1
	idleOp   = -2
)

// readRec is one attempted read.
type readRec struct {
	read     int
	session  int
	lat      time.Duration
	err      string
	bodyKey  bodyKey
	bytes    int
	clientNs time.Duration
	stmtID   int64 // > 0 for a read of the traced window
}

type bodyKey struct {
	read int
	hash uint64
}

// serverEnv is one set-up server: database, HTTP server and the sessions'
// clients.
type serverEnv struct {
	db      *predplace.DB
	srv     *predplace.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
}

type serverBench struct {
	spec  *Spec
	opts  options
	reads []stmt // the distinct reads; sessions index into it
	plans [][]op // each session's cycle

	mu       sync.Mutex
	recs     []readRec
	bodies   map[bodyKey][]byte
	inserted int64 // rows inserted so far (ids are 0..inserted-1)
	lowK     int64 // inserted rows with k < 500
	insertRd *rand.Rand
	insertUs []float64
	tr       *tracer // set during the traced window
	queued   []float64
	insErrs  []string
}

func newServerBench(spec *Spec, o options) *serverBench {
	b := &serverBench{spec: spec, opts: o, bodies: map[bodyKey][]byte{},
		insertRd: rand.New(rand.NewSource(o.seed ^ 0x1a5e27))}
	index := map[string]int{}
	for s := 0; s < spec.Clients; s++ {
		var plan []op
		for _, st := range serverReads(o.seed, s) {
			i, ok := index[st.SQL]
			if !ok {
				i = len(b.reads)
				index[st.SQL] = i
				b.reads = append(b.reads, st)
			}
			plan = append(plan, op{read: i})
		}
		b.plans = append(b.plans, plan)
	}
	// The last session inserts once per cycle; the others leave that slot
	// idle, so every session keeps the same schedule (see openWindow).
	at := rand.New(rand.NewSource(o.seed)).Intn(len(b.plans[0]) + 1)
	for s, plan := range b.plans {
		extra := op{read: idleOp}
		if s == spec.Clients-1 {
			extra.read = insertOp
		}
		b.plans[s] = append(plan[:at:at], append([]op{extra}, plan[at:]...)...)
	}
	return b
}

func (b *serverBench) setup() (*serverEnv, time.Duration, error) {
	t0 := time.Now()
	db, err := predplace.Open(openConfig(b.spec))
	if err != nil {
		return nil, 0, err
	}
	err = db.CreateTable(ingestTable, []predplace.ColumnSpec{
		{Name: "id", Indexed: true}, {Name: "k", Indexed: true}, {Name: "v"},
		{Name: "note", String: true, Len: 24}})
	if err != nil {
		return nil, 0, err
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{MaxConcurrent: b.spec.MaxConcurrent})
	for s := 0; s < b.spec.Clients; s++ {
		srv.SetTenantQuota(tenant(s), b.spec.TenantQuota)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	env := &serverEnv{db: db, srv: srv, served: make(chan error, 1), url: "http://" + ln.Addr().String() + "/query"}
	env.hs = &http.Server{Handler: b.middleware(srv), ReadHeaderTimeout: stmtDeadline}
	go func() { env.served <- env.hs.Serve(ln) }()
	for s := 0; s < b.spec.Clients; s++ {
		env.clients = append(env.clients, &http.Client{Timeout: stmtDeadline, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}})
	}
	b.mu.Lock()
	b.inserted, b.lowK = 0, 0
	b.mu.Unlock()
	for s, plan := range b.plans {
		for _, o := range plan {
			if err := b.step(env, s, o, nil); err != "" {
				b.teardown(env)
				return nil, 0, fmt.Errorf("warm-up: %s", err)
			}
		}
	}
	return env, time.Since(t0), nil
}

func tenant(session int) string { return fmt.Sprintf("tenant-%d", session) }

func (b *serverBench) teardown(env *serverEnv) {
	ctx, cancel := context.WithTimeout(context.Background(), stmtDeadline)
	defer cancel()
	if err := env.hs.Shutdown(ctx); err != nil {
		if err := env.hs.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing the HTTP server:", err)
		}
	}
	<-env.served
	for _, c := range env.clients {
		c.CloseIdleConnections()
	}
}

// step runs one op for a session; rec (nil during warm-up) receives the
// read's record. It returns an error description or "".
func (b *serverBench) step(env *serverEnv, session int, o op, rec *readRec) string {
	switch o.read {
	case idleOp:
		return ""
	case insertOp:
		return b.insertBatch(env.db)
	}
	st := b.reads[o.read]
	body, err := json.Marshal(predplace.QueryRequest{Tenant: tenant(session), SQL: st.SQL, Algorithm: st.Algo.String()})
	if err != nil {
		return err.Error()
	}
	req, err := http.NewRequest(http.MethodPost, env.url, bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	tr := b.tracer()
	var id int64
	sp := -1
	if rec != nil && tr != nil {
		id = tr.stmtID()
		sp = tr.begin(id, -1, "http.client")
		req.Header.Set(traceHeader, fmt.Sprintf("%d:%d", id, sp))
		rec.stmtID = id
	}
	resp, err := env.clients[session].Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		//pplint:ignore errdrop the body was read to the end; closing it cannot change the response
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
	if rec != nil {
		rec.clientNs = tr.end(sp)
	}
	if err != nil {
		return err.Error()
	}
	if rec != nil {
		// The elapsed field is the response's last and differs per call;
		// everything before it must repeat exactly.
		stable := data
		if i := bytes.LastIndex(data, []byte(`"elapsed"`)); i >= 0 {
			stable = data[:i]
		}
		h := newRowHasher()
		h.h.Write(stable)
		rec.bodyKey = bodyKey{read: o.read, hash: h.h.Sum64()}
		rec.bytes = len(data)
		b.mu.Lock()
		if _, ok := b.bodies[rec.bodyKey]; !ok {
			b.bodies[rec.bodyKey] = data
		}
		b.mu.Unlock()
	}
	return ""
}

func (b *serverBench) tracer() *tracer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tr
}

// insertBatch appends one seeded batch to the side table.
func (b *serverBench) insertBatch(db *predplace.DB) string {
	b.mu.Lock()
	rows := ingestBatch(b.insertRd, b.inserted, b.spec.InsertBatchRows)
	tr := b.tr
	b.mu.Unlock()
	id := tr.stmtID()
	root := tr.begin(id, -1, "insert.batch")
	defer tr.end(root)
	for _, r := range rows {
		sp := tr.begin(id, root, "predplace.DB.Insert")
		err := db.Insert(ingestTable, r.ID, r.K, r.V, r.Note)
		d := tr.end(sp)
		if err != nil {
			return fmt.Sprintf("insert %d: %v", r.ID, err)
		}
		b.mu.Lock()
		b.inserted++
		if r.K < 500 {
			b.lowK++
		}
		if tr != nil {
			b.insertUs = append(b.insertUs, float64(d)/1e3)
		}
		b.mu.Unlock()
	}
	return ""
}

// middleware times Server.Handler (the http.Handler span) and the part of
// it after the status line is written (http.encode: JSON encoding and the
// write), and samples the admission queue at arrival.
func (b *serverBench) middleware(srv *predplace.Server) http.Handler {
	h := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := b.tracer()
		idStr, parentStr, ok := strings.Cut(r.Header.Get(traceHeader), ":")
		if tr == nil || !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, err1 := strconv.ParseInt(idStr, 10, 64)
		parent, err2 := strconv.Atoi(parentStr)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		queued := float64(srv.Stats().Queued)
		sp := tr.begin(id, parent, "http.Handler")
		ew := &encodeWriter{ResponseWriter: w, tr: tr, id: id, parent: sp, sp: -1}
		h.ServeHTTP(ew, r)
		tr.end(ew.sp)
		tr.end(sp)
		b.mu.Lock()
		b.queued = append(b.queued, queued)
		b.mu.Unlock()
	})
}

type encodeWriter struct {
	http.ResponseWriter
	tr     *tracer
	id     int64
	parent int
	sp     int
}

func (w *encodeWriter) WriteHeader(code int) {
	if w.sp < 0 {
		w.sp = w.tr.begin(w.id, w.parent, "http.encode")
	}
	w.ResponseWriter.WriteHeader(code)
}

// openWindow runs the open loop for dur: every session sends its cycle
// over and over, op i due at start + i·interval, whether or not the
// previous op has returned; a session with a late op sends it at once.
// Session s runs s/sessions of an interval behind session 0, so their
// statements interleave instead of colliding. Latency runs from when an op
// was due. Ops still unsent at the hard stop count as failed.
func (b *serverBench) openWindow(env *serverEnv, dur time.Duration) (*window, []float64) {
	ops := 0
	for _, p := range b.plans {
		for _, o := range p {
			if o.read != idleOp {
				ops++
			}
		}
	}
	cycles := max(1, int(dur.Seconds()*b.spec.RateQPS/float64(ops)+0.5))
	n := cycles * len(b.plans[0])
	interval := dur / time.Duration(n)
	w := &window{}
	var lagMs []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	m0 := snapMem()
	start := time.Now().Add(10 * time.Millisecond)
	hardStop := start.Add(3*dur + 30*time.Second)
	var last time.Time
	for s, plan := range b.plans {
		phase := interval * time.Duration(s) / time.Duration(len(b.plans))
		wg.Add(1)
		go func(s int, plan []op) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				o := plan[i%len(plan)]
				if o.read == idleOp {
					continue
				}
				due := start.Add(time.Duration(i)*interval + phase)
				time.Sleep(time.Until(due))
				rec := readRec{read: o.read, session: s}
				sent := time.Now()
				if sent.After(hardStop) {
					rec.err = "not sent before the run's hard stop"
				} else {
					rec.err = b.step(env, s, o, &rec)
				}
				done := time.Now()
				rec.lat = done.Sub(due)
				mu.Lock()
				w.latMs = append(w.latMs, ms(rec.lat))
				lagMs = append(lagMs, ms(sent.Sub(due)))
				if rec.err != "" {
					w.failed++
				}
				if done.After(last) {
					last = done
				}
				b.mu.Lock()
				if o.read >= 0 {
					b.recs = append(b.recs, rec)
				} else if rec.err != "" { // an insert batch
					b.insErrs = append(b.insErrs, rec.err)
				}
				b.mu.Unlock()
				mu.Unlock()
			}
		}(s, plan)
	}
	wg.Wait()
	w.mem = snapMem().since(m0)
	w.busy = last.Sub(start)
	return w, lagMs
}

// check verifies the side table and every distinct response body against
// the oracle, and returns the number of failed statements (a read whose
// body is wrong, or any failed op) with the problems found.
func (b *serverBench) check(env *serverEnv) (int, []outcome, []string, error) {
	var problems []string
	failed := len(b.insErrs)
	for _, e := range b.insErrs {
		problems = append(problems, "insert batch: "+e)
	}
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM " + ingestTable, b.inserted},
		{"SELECT COUNT(*) FROM " + ingestTable + " WHERE " + ingestTable + ".k < 500", b.lowK},
	} {
		res, err := query(env.db, c.sql, predplace.Migration)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("%s: %w", c.sql, err)
		}
		if got := res.Rows[0][0].I; got != c.want {
			failed++
			problems = append(problems, fmt.Sprintf("%s = %d, want %d", c.sql, got, c.want))
		}
	}
	refs, refProblems, err := references(openConfig(b.spec), b.reads)
	if err != nil {
		return 0, nil, nil, err
	}
	problems = append(problems, refProblems...)
	bad := map[bodyKey]string{}
	h := newRowHasher()
	for k, body := range b.bodies {
		var resp predplace.QueryResponse
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&resp); err != nil {
			bad[k] = "undecodable response: " + err.Error()
			continue
		}
		sum, err := h.jsonRows(resp.Cols, resp.Rows)
		if err != nil {
			bad[k] = err.Error()
			continue
		}
		o := outcome{rowHash: sum, rows: resp.RowN, charged: resp.Charged}
		if len(resp.Rows) != resp.RowN {
			bad[k] = fmt.Sprintf("row_count %d but %d rows", resp.RowN, len(resp.Rows))
		} else if msg := refs[k.read].verify(o); msg != "" {
			bad[k] = msg
		}
	}
	for _, r := range b.recs {
		msg := r.err
		if msg == "" {
			msg = bad[r.bodyKey]
		}
		if msg != "" {
			failed++
			if len(problems) < 10 {
				problems = append(problems, fmt.Sprintf("session %d %s: %s", r.session, b.reads[r.read].SQL, msg))
			}
		}
	}
	return failed, refs, problems, nil
}

func runServer(spec *Spec, o options) (*result, error) {
	b := newServerBench(spec, o)
	var env *serverEnv
	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		if env != nil {
			b.teardown(env)
			env = nil
		}
		runtime.GC()
		var err error
		if env, setups[i], err = b.setup(); err != nil {
			return nil, err
		}
	}
	defer b.teardown(env)
	runtime.GC()
	res := &result{report: specLines(spec, o)}
	if o.trace {
		return b.traced(env, res)
	}
	w, _ := b.openWindow(env, o.seconds)
	live := liveHeapMB()
	failed, refs, problems, err := b.check(env)
	if err != nil {
		return nil, err
	}
	w.failed = failed
	for _, r := range b.recs {
		if r.err == "" {
			w.charged = append(w.charged, refs[r.read].charged)
		}
	}
	res.attempted, res.failed, res.problems = len(w.latMs), failed, problems
	res.metrics = endToEnd(setups, w, live)
	res.report = append(res.report, describe("end-to-end metrics:", res.metrics)...)
	return res, nil
}

// traced runs an untraced window (the overhead baseline) and a traced one,
// checks both, then measures the layers beneath the HTTP boundary by
// calling Server.Query, DB.Prepare and PreparedStatement.Exec directly and
// by replaying the reads layer by layer.
func (b *serverBench) traced(env *serverEnv, res *result) (*result, error) {
	// Built before either window; see localBench.traced.
	pr, err := newProber(b.spec)
	if err != nil {
		return nil, err
	}
	untraced, _ := b.openWindow(env, b.opts.seconds/3)
	tr := newTracer()
	pr.tr = tr
	b.mu.Lock()
	b.tr = tr
	firstTraced := len(b.recs)
	b.mu.Unlock()
	st0 := env.srv.Stats()
	w, lagMs := b.openWindow(env, b.opts.seconds-b.opts.seconds/3)
	st1 := env.srv.Stats()
	b.mu.Lock()
	b.tr = nil
	b.mu.Unlock()
	failed, refs, problems, err := b.check(env)
	if err != nil {
		return nil, err
	}
	res.attempted = len(untraced.latMs) + len(w.latMs)
	res.failed, res.problems = failed, problems

	m := layerMetrics()
	n := float64(len(w.latMs))
	m.put("runtime.gc_cycles_per_stmt", float64(w.mem.gcCycles)/n)
	m.put("runtime.gc_pause_ms_per_stmt", float64(w.mem.gcPauseNs)/1e6/n)
	m.put("loadgen.lag_ms", median(lagMs))
	m.put("trace.overhead_share", traceOverhead(untraced.latMs, w.latMs))
	m.put("storage.insert_us", median(b.insertUs))
	m.put("server.queued_per_stmt", mean(b.queued))
	if lookups := (st1.PlanHits - st0.PlanHits) + (st1.PlanMisses - st0.PlanMisses); lookups > 0 {
		m.put("predplace.plancache_hit_ratio", float64(st1.PlanHits-st0.PlanHits)/float64(lookups))
	}
	m.put("predplace.plancache_evictions_per_stmt", float64(st1.PlanEvictions-st0.PlanEvictions)/n)
	missRatio := 1 - m["predplace.plancache_hit_ratio"].Value

	queryMs, execMs, err := b.directCalls(env, tr, m)
	if err != nil {
		return nil, err
	}

	if msg := pr.checkPool(b.spec.DataFits); msg != "" {
		res.problems = append(res.problems, msg)
	}
	refCharged := make([]float64, len(b.reads))
	for i := range refs {
		refCharged[i] = refs[i].charged
	}
	probes, err := pr.replay(b.reads, refCharged, directReps)
	if err != nil {
		return nil, err
	}
	pr.fillProbes(m, probes)
	var finish float64
	for i, p := range probes {
		finish += execMs[i] - ms(p.run)
	}
	m.put("predplace.finish_ms", max(0, finish/float64(len(probes))))

	// Attribute each traced read's client time: transport outside the
	// handler, HTTP work inside it but outside Server.Query, and
	// Server.Query split by the replayed layer timings (parse, bind and
	// plan weighted by the window's plan-cache miss ratio).
	handler := map[int64][2]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == "http.Handler" || s.Name == "http.encode" {
			v := handler[s.Stmt]
			if s.Name == "http.Handler" {
				v[0] = time.Duration(s.End - s.Start)
			} else {
				v[1] = time.Duration(s.End - s.Start)
			}
			handler[s.Stmt] = v
		}
	}
	var lt layerTimes
	var hTotal, eTotal time.Duration
	var handled int
	var bytesTotal, rowsTotal float64
	for _, r := range b.recs[firstTraced:] {
		hv, ok := handler[r.stmtID]
		if r.err != "" || !ok {
			continue
		}
		p := probes[r.read]
		q := min(time.Duration(queryMs[r.read]*1e6), hv[0])
		lt.total += r.clientNs
		lt.transport += r.clientNs - hv[0]
		lt.http += hv[0] - q
		planned := lt.planning(q, missRatio, p)
		run := min(p.run, q-planned)
		lt.exec += run
		lt.predplace += q - planned - run
		handled++
		hTotal += hv[0]
		eTotal += hv[1]
		bytesTotal += float64(r.bytes)
		rowsTotal += float64(refs[r.read].rows)
	}
	if hTotal > 0 {
		m.put("http.handler_ms", ms(hTotal)/float64(handled))
		m.put("http.encode_share", float64(eTotal)/float64(hTotal))
	}
	if rowsTotal > 0 {
		m.put("http.response_bytes_per_row", bytesTotal/rowsTotal)
	}
	res.report = append(res.report, lt.fill(m)...)
	if share := m["http.encode_share"].Value; share < minEncodeShare {
		res.problems = append(res.problems, fmt.Sprintf("server-ingest: http.encode is %.1f%% of handler time, want >= %.0f%%", 100*share, 100*minEncodeShare))
	}
	return res, finishTrace(res, tr, m, b.spec.Name, b.opts.seed)
}

// directReps is how many times the traced run calls each read beneath
// the HTTP boundary (and replays it) after the window; medians are kept.
const directReps = 3

// directCalls runs each read through Server.Query, and prepares it once
// after an insert has invalidated its plan (a miss) and once more (a hit)
// and executes that, all after the window. It returns each read's median
// Server.Query time and its PreparedStatement.Exec time, in ms.
func (b *serverBench) directCalls(env *serverEnv, tr *tracer, m metrics) (queryMs, execMs []float64, err error) {
	env.db.SetProfile(true)
	var counts layerCounts
	var hitUs, missMs []float64
	for _, st := range b.reads {
		var qs []float64
		for r := 0; r < directReps; r++ {
			sp := tr.begin(tr.stmtID(), -1, "predplace.Server.Query")
			res, err := env.srv.Query(context.Background(), tenant(0), st.SQL, st.Algo)
			qs = append(qs, ms(tr.end(sp)))
			if err != nil {
				return nil, nil, fmt.Errorf("Server.Query %q: %w", st.SQL, err)
			}
			counts.add(res)
		}
		queryMs = append(queryMs, median(qs))
		if msg := b.insertBatch(env.db); msg != "" {
			return nil, nil, fmt.Errorf("invalidating insert: %s", msg)
		}
		for r := 0; r < 2; r++ {
			id := tr.stmtID()
			sp := tr.begin(id, -1, "predplace.DB.Prepare")
			ps, err := env.db.Prepare(st.SQL, st.Algo)
			d := tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			if r == 0 {
				missMs = append(missMs, ms(d))
				continue
			}
			hitUs = append(hitUs, float64(d)/1e3)
			sp = tr.begin(id, -1, "predplace.PreparedStatement.Exec")
			_, err = ps.Exec()
			execMs = append(execMs, ms(tr.end(sp)))
			if err != nil {
				return nil, nil, err
			}
		}
	}
	counts.fill(m)
	m.put("server.query_ms", mean(queryMs))
	m.put("predplace.prepare_hit_us", median(hitUs))
	m.put("predplace.prepare_miss_ms", median(missMs))
	m.put("predplace.exec_ms", median(execMs))
	return queryMs, execMs, nil
}

// minEncodeShare is the least share of Server.Handler time that encoding
// and writing responses must take for server-ingest to be measuring the
// HTTP path it was chosen for.
const minEncodeShare = 0.2
