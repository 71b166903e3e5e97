package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/cluster"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/router"
	"github.com/g-rpqs/rlc-go/internal/server"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// The traced run attributes a workload's time to layers from outside: the
// same requests are replayed in-process, one goroutine, as an onion of
// passes — a loopback round trip to an in-process http.Server whose handler
// is wrapped with timestamps, then the serving path without HTTP
// (Server.AnswerRLC), then the index alone (Index.Query), with the
// constraint parser and the minimum-repeat check as siblings. A layer's
// self time is its span minus the spans of the layers below it for the same
// request. Counts (allocations, cache and tier counters, build statistics)
// are deltas read at pass boundaries and repeat exactly for a seed.

// span is one timed call, kept in memory and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// tracer carries one traced run.
type tracer struct {
	cfg   config
	p     *procs
	in    *inputs
	res   *result
	spans []span
	clock int64 // cost of one time.Now/time.Since pair, taken off every per-call timing
}

func (t *tracer) set(name string, v float64) { t.res.set(perLayer, name, v) }

func runTraced(cfg config, p *procs, in *inputs, res *result) error {
	t := &tracer{cfg: cfg, p: p, in: in, res: res}
	for _, d := range perLayer {
		t.set(d.Name, 0)
	}
	t.measureClock()
	snapPath, ix, err := t.buildLayer()
	if err != nil {
		return err
	}
	if res.Workload == wMixedRepl {
		err = t.mixedLayers(snapPath)
	} else {
		err = t.readLayers(snapPath, ix)
	}
	if err != nil {
		return err
	}
	t.set("proc.rss_peak_mb", float64(vmHWM(os.Getpid()))/1024)
	out := filepath.Join(cfg.root, "benchmark", "out", "trace-"+res.Workload+".json")
	return writeJSONFile(out, t.spans)
}

// measureClock finds what an empty timed span reads — the clock's own
// latency — as the median of many such spans.
func (t *tracer) measureClock() {
	empty := make([]int64, 100001)
	for i := range empty {
		empty[i] = time.Since(time.Now()).Nanoseconds()
	}
	t.clock = int64(histOf(empty).quantile(0.5))
	t.set("trace.clock_ns", float64(t.clock))
}

// timed runs fn and returns its duration with the clock's own cost removed.
func (t *tracer) timed(fn func()) int64 {
	t0 := time.Now()
	fn()
	return max(0, time.Since(t0).Nanoseconds()-t.clock)
}

func histOf(ns []int64) *hist {
	h := &hist{}
	for _, v := range ns {
		h.record(v)
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// buildLayer times what set-up is made of: index construction, bundle
// write, open and verify, on the graph the servers boot from.
func (t *tracer) buildLayer() (string, *core.Index, error) {
	opts := core.Options{K: 2}
	if t.res.Workload == wPointBudget {
		opts.MaxIndexBytes = t.in.oracle.Stats().SizeBytes / 2
	}
	t0 := time.Now()
	ix, bst, err := core.BuildWithStats(t.in.start, opts)
	if err != nil {
		return "", nil, err
	}
	t.set("core.build_s", time.Since(t0).Seconds())
	st := ix.Stats()
	t.set("core.build_entries", float64(st.Entries))
	t.set("core.build_pruned_ratio", float64(bst.Attempts()-bst.Inserted)/float64(bst.Attempts()))
	t.set("core.index_bytes", float64(st.SizeBytes))
	t.set("core.packed_bytes", float64(st.Packed.SizeBytes))

	path := t.p.path("traced.rlcs")
	t0 = time.Now()
	if err := ix.SaveSnapshotFile(path); err != nil {
		return "", nil, err
	}
	t.set("core.bundle_write_ms", ms(time.Since(t0)))
	t0 = time.Now()
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		return "", nil, err
	}
	defer snap.Close()
	t.set("snapshot.open_ms", ms(time.Since(t0)))
	t0 = time.Now()
	if err := snap.Verify(); err != nil {
		return "", nil, err
	}
	t.set("core.verify_ms", ms(time.Since(t0)))
	return path, ix, nil
}

// openServer starts the serving layer over the bundle the way the binaries
// do: open, verify, wrap.
func openServer(path string, opts server.Options) (*server.Server, error) {
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err := snap.Verify(); err != nil {
		snap.Close()
		return nil, err
	}
	return server.NewFromSnapshot(snap, opts), nil
}

// warmServer opens a fresh read-only server and fills its result cache the
// way the untraced run's warm-up does, with the requests that follow the
// traced head of the stream — enough of them to fill the default cache, so
// every pass starts from the same steady state and replays the same hits,
// misses and evictions.
func (t *tracer) warmServer(path string) (*server.Server, error) {
	srv, err := openServer(path, server.Options{})
	if err != nil {
		return nil, err
	}
	in, idx := t.in, t.in.stream
	if t.res.Workload == wBatchCold {
		idx = in.bodyIdx
	}
	ctx := context.Background()
	for i := 0; i < 2*server.DefaultCacheEntries; i++ {
		q := in.pool[idx[(t.cfg.sz.traceRequests+i)%len(idx)]]
		if _, _, err := srv.AnswerRLC(ctx, q.s, q.t, q.seq()); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// loopback serves h on a kernel-chosen loopback port until stop is called.
func loopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// stamps wraps a handler with timestamps. The harness is the only client
// and waits for each reply, so spans arrive in request order; the mutex only
// orders the server goroutine's writes before the client's reads.
type stamps struct {
	base       time.Time
	mu         sync.Mutex
	start, end []int64
	inner      int64 // time spent in wrapped inner handlers since the last outer span
}

func traced(path string) bool { return path == "/query" || path == "/batch" || path == "/update" }

func (s *stamps) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !traced(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Since(s.base).Nanoseconds()
		h.ServeHTTP(w, r)
		t1 := time.Since(s.base).Nanoseconds()
		s.mu.Lock()
		s.start, s.end = append(s.start, t0), append(s.end, t1)
		s.mu.Unlock()
	})
}

// wrapInner times a backend behind the router; its time is credited to the
// outer span that is open when it returns.
func (s *stamps) wrapInner(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !traced(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Nanoseconds()
		s.mu.Lock()
		s.inner += d
		s.mu.Unlock()
	})
}

// discard is a ResponseWriter that keeps nothing, reused across calls so
// the handler's own allocations are the only ones a pass counts.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// traceRequests returns the head of the workload's request stream as raw
// HTTP and, per request, the pool entries it asks about.
func (t *tracer) traceRequests() (raw [][]byte, asks [][]uint32) {
	in, n := t.in, t.cfg.sz.traceRequests
	if t.res.Workload == wBatchCold {
		// A batch carries batchSize queries; a sixteenth as many requests
		// still replays far more queries than a point pass.
		bs := t.cfg.sz.batchSize
		for i := 0; i < max(1, n/16); i++ {
			at := i % in.bodies.len()
			raw = append(raw, in.bodies.get(at))
			asks = append(asks, in.bodyIdx[at*bs:(at+1)*bs])
		}
		return raw, asks
	}
	for i := 0; i < n; i++ {
		at := i % len(in.stream)
		raw = append(raw, in.reqs.get(int(in.stream[at])))
		asks = append(asks, in.stream[at:at+1])
	}
	return raw, asks
}

// roundTrips sends every request over one connection to addr, checks the
// answers, and returns each round trip's start and end.
func (t *tracer) roundTrips(addr string, raw [][]byte, asks [][]uint32, count bool) (start, end []int64, c *conn, err error) {
	if c, err = dial(addr); err != nil {
		return nil, nil, nil, err
	}
	defer c.close()
	base := time.Now()
	for i, req := range raw {
		t0 := time.Since(base).Nanoseconds()
		status, body, err := c.do(req)
		t1 := time.Since(base).Nanoseconds()
		if err != nil {
			return nil, nil, nil, err
		}
		start, end = append(start, t0), append(end, t1)
		if !count {
			continue
		}
		t.res.Attempted += int64(len(asks[i]))
		if status != 200 || bytes.Contains(body, []byte(`"error"`)) {
			t.res.Failed += int64(len(asks[i]))
			fmt.Fprintf(os.Stderr, "FAIL %s traced request %d: status %d: %.200s\n", t.res.Workload, i, status, body)
			continue
		}
		seen := batchAnswers(body, func(j int, got bool) {
			if j < len(asks[i]) && got != t.in.pool[asks[i][j]].want {
				t.res.Failed++
				fmt.Fprintf(os.Stderr, "FAIL %s traced request %d: %s answered %v\n", t.res.Workload, i, t.in.pool[asks[i][j]], got)
			}
		})
		if seen != len(asks[i]) {
			t.res.Failed += int64(len(asks[i]))
		}
	}
	return start, end, c, nil
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// readLayers is the onion for the three read-only workloads.
func (t *tracer) readLayers(snapPath string, ix *core.Index) error {
	raw, asks := t.traceRequests()
	n := float64(len(raw))
	queries := 0
	for _, a := range asks {
		queries += len(a)
	}

	// Pass 1, tracing off: the same round trips with a bare handler. Its
	// median against pass 2's is what the timestamps themselves cost.
	srv, err := t.warmServer(snapPath)
	if err != nil {
		return err
	}
	addr, stop, err := loopback(srv.Handler())
	if err != nil {
		return err
	}
	start, end, _, err := t.roundTrips(addr, raw, asks, false)
	stop()
	srv.Close()
	if err != nil {
		return err
	}
	bare := histOf(sub(end, start)).quantile(0.5)

	// Pass 2: round trips against a fresh server with a stamped handler.
	// The handler span is a true child of the round trip; what is left of
	// the round trip is net/http, the kernel's loopback and this client.
	if srv, err = t.warmServer(snapPath); err != nil {
		return err
	}
	st := &stamps{base: time.Now()}
	if addr, stop, err = loopback(st.wrap(srv.Handler())); err != nil {
		return err
	}
	cs0 := srv.CacheStats()
	m0, _ := mallocs()
	start, end, c, err := t.roundTrips(addr, raw, asks, true)
	m1, _ := mallocs()
	stop()
	cs := srv.CacheStats()
	srv.Close()
	if err != nil {
		return err
	}
	if len(st.start) != len(raw) {
		return fmt.Errorf("traced %d handler spans for %d requests", len(st.start), len(raw))
	}
	rt, handler := sub(end, start), sub(st.end, st.start)
	rth := histOf(rt)
	t.set("client.lat_p999_us", rth.quantile(0.999)/1e3)
	t.set("client.lat_max_us", float64(rth.max)/1e3)
	t.set("client.samples", n)
	t.set("client.bytes_in_per_op", float64(c.bytesIn)/n)
	t.set("client.bytes_out_per_op", float64(c.bytesOut)/n)
	t.set("net.self_p50_us", histOf(sub(rt, handler)).quantile(0.5)/1e3)
	t.set("trace.overhead_ratio", rth.quantile(0.5)/bare)
	if lookups := cs.Hits + cs.Misses - cs0.Hits - cs0.Misses; lookups > 0 {
		t.set("server.cache_hit_ratio", float64(cs.Hits-cs0.Hits)/float64(lookups))
		t.set("server.cache_evictions_per_kop", float64(cs.Evictions-cs0.Evictions)*1e3/float64(lookups))
	}
	for i := range raw {
		t.spans = append(t.spans,
			span{Name: "client.request", Req: i, Start: start[i], End: end[i]},
			span{Name: "server.handler", Parent: "client.request", Req: i, Start: st.start[i], End: st.end[i]})
	}

	// Pass 3: the handler alone, on parsed requests and a writer that keeps
	// nothing, for its allocation counts. The requests are parsed before
	// the counters are read.
	if srv, err = t.warmServer(snapPath); err != nil {
		return err
	}
	reqs := make([]*http.Request, len(raw))
	for i, b := range raw {
		if reqs[i], err = http.ReadRequest(bufio.NewReader(bytes.NewReader(b))); err != nil {
			return err
		}
	}
	h, w := srv.Handler(), &discard{h: http.Header{}}
	a0, b0 := mallocs()
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	a1, b1 := mallocs()
	srv.Close()
	handlerAllocs := float64(a1-a0) / n
	t.set("server.handler_allocs_per_op", handlerAllocs)
	t.set("server.handler_bytes_per_op", float64(b1-b0)/n)
	t.set("net.allocs_per_op", max(0, float64(m1-m0)/n-handlerAllocs))

	// The layers under the handler, on the same queries in the same order.
	flat := make([]query, 0, queries)
	for _, a := range asks {
		for _, pi := range a {
			flat = append(flat, t.in.pool[pi])
		}
	}
	if len(flat) > t.cfg.sz.traceRequests {
		flat = flat[:t.cfg.sz.traceRequests]
	}
	g := t.in.start
	parse, mr := t.blocks(len(flat), func(i int) {
		q := flat[i]
		automaton.ParseForGraph(fmt.Sprintf("(l%d l%d)+", q.a, q.b), g)
	}), t.blocks(len(flat), func(i int) { labelseq.MinimumRepeat(flat[i].seq()) })
	t.set("automaton.parse_p50_ns", parse)
	t.set("labelseq.mr_p50_ns", mr)

	// Index.Query alone. On a budgeted index the tier counters say which
	// calls fell through to traversal.
	ts0 := ix.TierStats()
	var query, fallback []int64
	for _, q := range flat {
		before := ix.TierStats().FilterMaybe
		d := t.timed(func() { ix.Query(q.s, q.t, q.seq()) })
		query = append(query, d)
		if ix.TierStats().FilterMaybe != before {
			fallback = append(fallback, d)
		}
	}
	qh := histOf(query)
	t.set("core.query_p50_ns", qh.quantile(0.5))
	t.set("core.query_p99_ns", qh.quantile(0.99))
	t.set("core.tier_exact_ratio", 1)
	if ts1 := ix.TierStats(); ix.Tiered() {
		total := float64(len(flat))
		t.set("core.tier_exact_ratio", float64(ts1.ExactHits-ts0.ExactHits)/total)
		t.set("core.tier_filter_ratio", float64(ts1.FilterDefinite-ts0.FilterDefinite)/total)
		t.set("core.tier_traversal_ratio", float64(ts1.FilterMaybe-ts0.FilterMaybe)/total)
	}
	if len(fallback) > 0 {
		t.set("core.fallback_p50_us", histOf(fallback).quantile(0.5)/1e3)
	}

	// The paper's online baseline on the same queries; the index's speed-up
	// is this over core.query_p50_ns.
	ev := traversal.NewEvaluator(g)
	nfas := nfaCache{}
	var bfs []int64
	for _, q := range flat {
		nfa, err := nfas.of(q, g.NumLabels())
		if err != nil {
			return err
		}
		bfs = append(bfs, t.timed(func() { ev.BiBFS(q.s, q.t, nfa) }))
	}
	t.set("traversal.bibfs_p50_us", histOf(bfs).quantile(0.5)/1e3)
	t.set("traversal.bibfs_p99_us", histOf(bfs).quantile(0.99)/1e3)

	if t.res.Workload == wBatchCold {
		// handleBatch peels cache hits and hands the misses to
		// QueryBatchInto; what is left of the handler per query once the
		// index's share of the misses is taken off is decode, resolve,
		// cache churn and encode.
		var buf []core.BatchResult
		var per []int64
		bq := make([]core.BatchQuery, 0, t.cfg.sz.batchSize)
		for _, a := range asks {
			bq = bq[:0]
			for _, pi := range a {
				q := t.in.pool[pi]
				bq = append(bq, core.BatchQuery{S: q.s, T: q.t, L: q.seq()})
			}
			per = append(per, t.timed(func() { buf = ix.QueryBatchInto(bq, 0, buf) })/int64(len(bq)))
		}
		batchNs := histOf(per).quantile(0.5)
		t.set("core.batch_ns_per_query", batchNs)
		missShare := 1 - t.res.Metrics["server.cache_hit_ratio"].Value
		perQuery := histOf(handler).quantile(0.5) / float64(t.cfg.sz.batchSize)
		t.set("server.batch_self_us_per_query", (perQuery-missShare*batchNs)/1e3)
		t.set("server.handler_self_p50_us", (perQuery-missShare*batchNs)*float64(t.cfg.sz.batchSize)/1e3)
		return nil
	}

	// Server.AnswerRLC on a fresh server: the cache and singleflight around
	// the index. Its self time is the call minus the index's time when the
	// cache missed.
	if srv, err = t.warmServer(snapPath); err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	var answerSelf, handlerSelf []int64
	for i, q := range flat {
		var cached bool
		d := t.timed(func() { _, cached, _ = srv.AnswerRLC(ctx, q.s, q.t, q.seq()) })
		t.spans = append(t.spans, span{Name: "server.answer", Parent: "server.handler", Req: i, End: d})
		self := d
		if !cached {
			self = max(0, d-query[i])
			t.spans = append(t.spans, span{Name: "core.query", Parent: "server.answer", Req: i, End: query[i]})
		}
		answerSelf = append(answerSelf, self)
		handlerSelf = append(handlerSelf, max(0, handler[i]-d-int64(parse)-int64(mr)))
	}
	t.set("server.answer_self_p50_ns", histOf(answerSelf).quantile(0.5))
	t.set("server.handler_self_p50_us", histOf(handlerSelf).quantile(0.5)/1e3)
	return nil
}

// blocks times fn in blocks of 256 calls — a single call is too short for
// the clock — and returns the median block's nanoseconds per call.
func (t *tracer) blocks(n int, fn func(i int)) float64 {
	const block = 256
	var per []float64
	for at := 0; at+block <= n; at += block {
		d := t.timed(func() {
			for i := at; i < at+block; i++ {
				fn(i)
			}
		})
		per = append(per, float64(d)/block)
	}
	return median(per)
}

// sub is a-b elementwise, floored at zero.
func sub(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = max(0, a[i]-b[i])
	}
	return out
}

// inCluster is the replicated tier in-process: leader, follower and router,
// each behind its own loopback listener, exactly the handlers the binaries
// serve.
type inCluster struct {
	leader, follower         *server.Server
	fol                      *cluster.Follower
	leaderAddr, followerAddr string
	routerAddr               string
	cancel                   context.CancelFunc
	stops                    []func()
	wg                       sync.WaitGroup
}

func (t *tracer) startCluster(snapPath string, st *stamps) (*inCluster, error) {
	c := &inCluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	wrapInner, wrapOuter := func(h http.Handler) http.Handler { return h }, func(h http.Handler) http.Handler { return h }
	if st != nil {
		wrapInner, wrapOuter = st.wrapInner, st.wrap
	}
	var err error
	if c.leader, err = openServer(snapPath, server.Options{Mutable: true, Role: "leader",
		RebuildThreshold: -1, RebuildPath: t.p.path("traced-fold.rlcs")}); err != nil {
		return nil, err
	}
	if c.follower, err = openServer(snapPath, server.Options{Mutable: true, Role: "follower", RebuildThreshold: -1}); err != nil {
		return nil, err
	}
	var stop func()
	if c.leaderAddr, stop, err = loopback(wrapInner(cluster.NewLeader(c.leader).Handler())); err != nil {
		return nil, err
	}
	c.stops = append(c.stops, stop)
	if c.followerAddr, stop, err = loopback(wrapInner(c.follower.Handler())); err != nil {
		return nil, err
	}
	c.stops = append(c.stops, stop)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.fol = cluster.NewFollower(c.follower, cluster.FollowerOptions{LeaderURL: "http://" + c.leaderAddr})
	rt := router.New(router.Options{LeaderURL: "http://" + c.leaderAddr, FollowerURLs: []string{"http://" + c.followerAddr}})
	rt.Refresh(ctx)
	c.wg.Add(2)
	go func() { defer c.wg.Done(); c.fol.Run(ctx) }()
	go func() { defer c.wg.Done(); rt.Run(ctx) }()
	if c.routerAddr, stop, err = loopback(wrapOuter(rt.Handler())); err != nil {
		return nil, err
	}
	c.stops = append(c.stops, stop)
	ok = true
	return c, nil
}

func (c *inCluster) close() {
	if c.cancel != nil {
		c.cancel()
	}
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.wg.Wait()
	if c.follower != nil {
		c.follower.Close()
	}
	if c.leader != nil {
		c.leader.Close()
	}
}

// waitFollower spins until the follower has applied seq at epoch, and
// returns how long that took.
func (c *inCluster) waitFollower(epoch, seq uint64) (time.Duration, error) {
	begin := time.Now()
	for {
		if rs := c.follower.ReplState(); rs.Epoch >= epoch && rs.Seq >= seq {
			return time.Since(begin), nil
		}
		if time.Since(begin) > time.Minute {
			return 0, fmt.Errorf("follower stuck at %+v, waiting for epoch %d seq %d", c.follower.ReplState(), epoch, seq)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// mixedPass is what one replay of the mixed-repl stream measured.
type mixedPass struct {
	all           []int64 // every round trip, in request order
	reads, writes []int64 // unpinned reads and updates, a subset of all
	lags          []int64 // write acknowledged to follower applied
	followerShare float64 // unpinned reads the router sent to the follower
	pinnedLeader  float64 // pinned reads the router sent to the leader
}

// mixedTrace replays the head of the mixed-repl stream through the router:
// 256 unpinned reads, then one write and the read that carries its token.
// after, when set, runs once each reply is in; count says whether this
// pass's answers go into attempted and failed.
func (t *tracer) mixedTrace(c *inCluster, count bool, after func()) (m mixedPass, err error) {
	in := t.in
	cl, err := dial(c.routerAddr)
	if err != nil {
		return m, err
	}
	defer cl.close()
	var req []byte
	var nFollower, nPinned, nPinnedLeader float64
	// do is one timed round trip; q, when set, is the query it asked.
	do := func(req []byte, q *query) (int64, error) {
		var status int
		var body []byte
		var err error
		d := t.timed(func() { status, body, err = cl.do(req) })
		if err != nil {
			return 0, err
		}
		m.all = append(m.all, d)
		if after != nil {
			after()
		}
		if q == nil {
			if status != 200 {
				return 0, fmt.Errorf("traced update: status %d: %s", status, body)
			}
			return d, nil
		}
		if count {
			t.res.Attempted++
			if got, ok := reachable(body); status != 200 || !ok || got != q.want {
				t.res.Failed++
				fmt.Fprintf(os.Stderr, "FAIL %s traced %s: status %d: %s\n", t.res.Workload, q, status, body)
			}
		}
		return d, nil
	}
	for i := 0; i < t.cfg.sz.traceRequests; i++ {
		if i%256 != 255 || len(m.writes) == len(in.withheld) {
			pi := in.stream[i%len(in.stream)]
			d, err := do(in.reqs.get(int(pi)), &in.pool[pi])
			if err != nil {
				return m, err
			}
			m.reads = append(m.reads, d)
			if !bytes.HasSuffix(cl.backend, []byte(c.leaderAddr)) {
				nFollower++
			}
			continue
		}
		e := in.withheld[len(m.writes)]
		req = appendUpdate(req[:0], e)
		d, err := do(req, nil)
		if err != nil {
			return m, err
		}
		acked := time.Now()
		seq, ok := pinSeq(cl.pin)
		if !ok {
			return m, fmt.Errorf("traced update %v: token %q", e, cl.pin)
		}
		m.writes = append(m.writes, d)
		q := edgeQuery(e)
		req = appendQueryRequest(req[:0], q, string(cl.pin))
		if _, err := do(req, &q); err != nil {
			return m, err
		}
		nPinned++
		if bytes.HasSuffix(cl.backend, []byte(c.leaderAddr)) {
			nPinnedLeader++
		}
		// The lag is read after the pinned read, so that waiting for the
		// follower does not change where the router sends that read.
		if _, err := c.waitFollower(0, seq); err != nil {
			return m, err
		}
		m.lags = append(m.lags, time.Since(acked).Nanoseconds())
	}
	m.followerShare = nFollower / max(1, float64(len(m.reads)))
	m.pinnedLeader = nPinnedLeader / max(1, nPinned)
	if count {
		n := float64(len(m.all))
		t.set("client.samples", n)
		t.set("client.bytes_in_per_op", float64(cl.bytesIn)/n)
		t.set("client.bytes_out_per_op", float64(cl.bytesOut)/n)
	}
	return m, nil
}

// mixedLayers is the traced run of mixed-repl: the read path through the
// router, the fold end to end, then each write-side layer on its own.
func (t *tracer) mixedLayers(snapPath string) error {
	// Pass 1, tracing off, on a cluster of its own so that pass 2 starts
	// from the same empty journal.
	c, err := t.startCluster(snapPath, nil)
	if err != nil {
		return err
	}
	bare, err := t.mixedTrace(c, false, nil)
	c.close()
	if err != nil {
		return err
	}

	// Pass 2: stamped. The router's handler is the outer span; the time the
	// backend's handler took inside it is the inner one, and the rest of
	// the outer span is the hop: routing, the proxied round trip, relaying.
	st := &stamps{base: time.Now()}
	if c, err = t.startCluster(snapPath, st); err != nil {
		return err
	}
	defer c.close()
	var outer, hop, backend []int64
	var lastInner int64
	// The inner counter is cumulative, so it is read once per outer span,
	// as each reply arrives.
	m, err := t.mixedTrace(c, true, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		for i := len(outer); i < len(st.start); i++ {
			inner := st.inner - lastInner
			lastInner = st.inner
			outer = append(outer, st.end[i]-st.start[i])
			hop, backend = append(hop, max(0, outer[i]-inner)), append(backend, inner)
		}
	})
	if err != nil {
		return err
	}
	if len(outer) != len(m.all) {
		return fmt.Errorf("traced %d router spans for %d requests", len(outer), len(m.all))
	}
	rh := histOf(m.reads)
	t.set("client.lat_p999_us", rh.quantile(0.999)/1e3)
	t.set("client.lat_max_us", float64(rh.max)/1e3)
	t.set("trace.overhead_ratio", rh.quantile(0.5)/histOf(bare.reads).quantile(0.5))
	t.set("net.self_p50_us", histOf(sub(m.all, outer)).quantile(0.5)/1e3)
	t.set("router.hop_p50_us", histOf(hop).quantile(0.5)/1e3)
	t.set("server.handler_self_p50_us", histOf(backend).quantile(0.5)/1e3)
	t.set("router.follower_share", m.followerShare)
	t.set("router.pinned_leader_share", m.pinnedLeader)
	t.set("cluster.lag_p99_ms", histOf(m.lags).quantile(0.99)/1e6)
	t.res.context("traced_write_p50_us", histOf(m.writes).quantile(0.5)/1e3, "us")
	for i := range outer {
		t.spans = append(t.spans,
			span{Name: "client.request", Req: i, End: m.all[i]},
			span{Name: "router.handler", Parent: "client.request", Req: i, Start: st.start[i], End: st.end[i]},
			span{Name: "server.handler", Parent: "router.handler", Req: i, End: backend[i]})
	}

	// The fold, end to end, on the cluster that just took the writes: the
	// leader rebuilds and swaps, the follower fetches the bundle, verifies
	// it and cuts over. The follower learns of a new epoch from its journal
	// long poll, which an idle leader holds open for seconds; one more
	// write wakes it, as the writes of the untraced run do.
	journal := len(m.writes)
	t0 := time.Now()
	rr, err := c.leader.Rebuild()
	if err != nil {
		return err
	}
	foldS := time.Since(t0)
	t.set("server.fold_s", foldS.Seconds())
	t0 = time.Now()
	wake, err := c.leader.UpdateBatch(t.in.withheld[journal : journal+1])
	if err != nil {
		return err
	}
	if _, err := c.waitFollower(rr.Epoch, wake.Seq); err != nil {
		return err
	}
	t.set("cluster.follower_cutover_s", time.Since(t0).Seconds())
	t.set("cluster.segments_applied", float64(c.fol.Stats().Segments))
	t0 = time.Now()
	resp, err := http.Get(fmt.Sprintf("http://%s/repl/bundle?epoch=%d", c.leaderAddr, rr.Epoch))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fmt.Errorf("GET /repl/bundle: status %d, %v", resp.StatusCode, err)
	}
	t.set("cluster.bundle_ship_ms", ms(time.Since(t0)))

	return t.writeLayers(snapPath, journal, foldS)
}

// writeLayers times the write-side layers one by one, outside the cluster:
// journal append, the overlay read, the update path, and every phase of a
// fold over the same journal, whose sum taken off the measured fold leaves
// the swap.
func (t *tracer) writeLayers(snapPath string, journal int, foldS time.Duration) error {
	in := t.in
	snap, err := core.OpenSnapshot(snapPath)
	if err != nil {
		return err
	}
	defer snap.Close()
	d := dynamic.New(snap.Graph(), snap.Index(), dynamic.Options{RebuildThreshold: -1})
	var appendNs int64
	add := func(edges []graph.Edge) error {
		for _, e := range edges {
			appendNs += t.timed(func() { err = d.AddEdges([]graph.Edge{e}) })
			if err != nil {
				return err
			}
		}
		return nil
	}

	// The fold's phases, each alone, over the journal the measured fold had.
	if err := add(in.withheld[:journal]); err != nil {
		return err
	}
	t0 := time.Now()
	union, folded := d.FoldInput()
	phases := time.Since(t0)
	t.set("dynamic.union_ms", ms(phases))
	if folded != journal {
		return fmt.Errorf("fold input covers %d of %d journal edges", folded, journal)
	}
	t0 = time.Now()
	ix, err := core.Build(union, core.Options{K: 2})
	if err != nil {
		return err
	}
	path := t.p.path("traced-phases.rlcs")
	if err := ix.SaveSnapshotFile(path); err != nil {
		return err
	}
	s2, err := core.OpenSnapshot(path)
	if err != nil {
		return err
	}
	err = s2.Verify()
	s2.Close()
	if err != nil {
		return err
	}
	phases += time.Since(t0)
	t.set("server.fold_swap_ms", ms(max(0, foldS-phases)))

	// The overlay read with every withheld edge in the journal: the state
	// the untraced run reaches just before it folds.
	if err := add(in.withheld[journal:]); err != nil {
		return err
	}
	t.set("dynamic.append_ns_per_edge", float64(appendNs)/float64(len(in.withheld)))
	ctx := context.Background()
	var overlay []int64
	for i := 0; i < min(t.cfg.sz.verifySample, len(in.stream)); i++ {
		q := in.pool[in.stream[i]]
		var got bool
		overlay = append(overlay, t.timed(func() { got, err = d.QueryRLC(ctx, q.s, q.t, q.seq()) }))
		t.res.Attempted++
		if err != nil || got != q.want {
			t.res.Failed++
			fmt.Fprintf(os.Stderr, "FAIL %s overlay %s: answered %v, %v\n", t.res.Workload, q, got, err)
		}
	}
	t.set("dynamic.overlay_query_p50_us", histOf(overlay).quantile(0.5)/1e3)

	srv, err := openServer(snapPath, server.Options{Mutable: true, RebuildThreshold: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	var update []int64
	for _, e := range in.withheld {
		update = append(update, t.timed(func() { _, err = srv.UpdateBatch([]graph.Edge{e}) }))
		if err != nil {
			return err
		}
	}
	t.set("server.update_p50_us", histOf(update).quantile(0.5)/1e3)

	seg := in.withheld[:min(cluster.MaxSegmentEdges, len(in.withheld))]
	var enc, dec []int64
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		buf.Reset()
		enc = append(enc, t.timed(func() { err = cluster.WriteSegments(&buf, 0, seg) }))
		if err != nil {
			return err
		}
		rd := bytes.NewReader(buf.Bytes())
		dec = append(dec, t.timed(func() { _, _, err = cluster.ReadSegment(rd) }))
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
	t.set("cluster.segment_encode_us", histOf(enc).quantile(0.5)/1e3)
	t.set("cluster.segment_decode_us", histOf(dec).quantile(0.5)/1e3)
	return nil
}
