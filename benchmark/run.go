package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// runner carries one untraced run: the deployment under test, the inputs,
// and the failure count every check feeds.
type runner struct {
	cfg   config
	p     *procs
	in    *inputs
	res   *result
	shown int
	// setups holds every set-up's duration.
	setups []float64
	// broken is set when the connection to the system under test cannot
	// be re-established; the load loop stops and the run fails.
	broken error
}

// fail counts n failed queries and prints the first few with their cause.
func (r *runner) fail(n int, format string, args ...any) {
	r.res.Failed += int64(n)
	if r.shown < 10 {
		r.shown++
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", r.res.Workload, fmt.Sprintf(format, args...))
	}
}

// deployment is the set of server processes one workload talks to.
type deployment struct {
	servers          []*child // every server-side process: CPU and memory are summed over them
	target           *child   // where the load goes
	bundle           string   // the bundle being served
	leader, follower *child   // mixed-repl only
}

// deploy sets the system under test up n times — build the bundle with
// rlcbuild, start the servers, wait until they answer /healthz — timing
// each, and returns the last deployment.
func (r *runner) deploy(graphPath string, n int) (*deployment, error) {
	var d *deployment
	for i := 0; i < n; i++ {
		r.p.stopAll()
		t0 := time.Now()
		var err error
		if d, err = r.deployOnce(graphPath); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	return d, nil
}

func (r *runner) deployOnce(graphPath string) (*deployment, error) {
	p := r.p
	d := &deployment{bundle: p.path("served.rlcs")}
	build := []string{"-graph", graphPath, "-k", "2", "-o", d.bundle}
	if r.res.Workload == wPointBudget {
		// Half of what the untiered index needs: the builder keeps exact
		// lists for the best-ranked hubs and demotes the rest to filters.
		half := r.in.oracle.Stats().SizeBytes / 2
		build = append(build, "-max-index-bytes", strconv.FormatInt(half, 10))
	}
	if err := p.run("rlcbuild", build...); err != nil {
		return nil, err
	}
	if r.res.Workload != wMixedRepl {
		srv, err := p.start("rlcserve", "rlcserve", "-snapshot", d.bundle)
		if err != nil {
			return nil, err
		}
		d.servers, d.target = []*child{srv}, srv
		return d, waitHealthy(srv.addr, 0)
	}
	var err error
	// Folds only on request, written to a bundle the follower then fetches.
	// The leader has a CPU of its own (cpu.go).
	if d.leader, err = p.startOn(p.leaderCPU, "leader", "rlccluster", "-role", "leader", "-snapshot", d.bundle,
		"-rebuild-threshold", "-1", "-rebuild-out", p.path("fold.rlcs")); err != nil {
		return nil, err
	}
	if d.follower, err = p.start("follower", "rlccluster", "-role", "follower", "-snapshot", d.bundle,
		"-leader", "http://"+d.leader.addr); err != nil {
		return nil, err
	}
	if d.target, err = p.start("router", "rlcrouter", "-leader", "http://"+d.leader.addr,
		"-followers", "http://"+d.follower.addr); err != nil {
		return nil, err
	}
	d.servers = []*child{d.leader, d.follower, d.target}
	return d, waitHealthy(d.target.addr, 2)
}

// waitHealthy polls /healthz until it answers 200 and, for a router, until
// it reports backends healthy backends.
func waitHealthy(addr string, backends int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body, err := getJSON(addr, "/healthz")
		if err == nil && status == 200 && bytes.Count(body, []byte(`"healthy":true`)) == backends {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy after 30s: status %d, %v, %s", addr, status, err, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// traffic is one workload's closed loop: send issues the next request and
// keeps the reply, check compares it with the expectation outside the
// timed span.
type traffic interface {
	send() (write bool, queries int)
	check()
}

// window is what one stretch of load measured.
type window struct {
	reads, writes hist
	queries       int64
	seconds, cpu  float64
}

// drive runs the closed loop until stop says so.
func (r *runner) drive(t traffic, servers []*child, stop func(now time.Time) bool) (*window, error) {
	w := &window{}
	cpu0, err := cpuSeconds(servers)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for now := begin; !stop(now) && r.broken == nil; now = time.Now() {
		write, q := t.send()
		lat := time.Since(now).Nanoseconds()
		t.check()
		if write {
			w.writes.record(lat)
		} else {
			w.reads.record(lat)
		}
		w.queries += int64(q)
	}
	w.seconds = time.Since(begin).Seconds()
	cpu1, err := cpuSeconds(servers)
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	r.res.Attempted += w.queries
	return w, r.broken
}

func until(deadline time.Time) func(time.Time) bool {
	return func(now time.Time) bool { return !now.Before(deadline) }
}

// runWorkload is one untraced run: set up, warm up, measure the window in
// slices, verify, report.
func runWorkload(cfg config, p *procs, in *inputs, res *result) error {
	r := &runner{cfg: cfg, p: p, in: in, res: res}
	// Set-ups are timed before the measured window and again after it: a
	// slow spell of the host lasts seconds and would otherwise colour every
	// set-up of the run alike.
	graphPath := p.path("g.graph")
	if err := graph.SaveFile(graphPath, in.start); err != nil {
		return err
	}
	before := (cfg.sz.setups + 1) / 2
	d, err := r.deploy(graphPath, before)
	if err != nil {
		return err
	}
	c, err := dial(d.target.addr)
	if err != nil {
		return err
	}
	defer c.close()

	var t traffic
	var mixed *mixedTraffic
	switch res.Workload {
	case wBatchCold:
		t = &batchTraffic{r: r, c: c}
	case wMixedRepl:
		mixed = newMixedTraffic(r, c, d)
		defer mixed.stopPoller()
		t = mixed
	default:
		t = &pointTraffic{r: r, c: c}
	}

	// Warm-up: caches fill, connections and goroutines settle; not recorded.
	attempted := res.Attempted
	if _, err := r.drive(t, d.servers, until(time.Now().Add(cfg.sz.warmup))); err != nil {
		return err
	}
	res.Attempted = attempted

	// The measured window, cut into slices; each end-to-end number is the
	// best decile over the slices (see quiet).
	var p50, p99, qps, cpu []float64
	var samples int64
	total := &window{}
	for end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second))); time.Now().Before(end); {
		w, err := r.drive(t, d.servers, until(time.Now().Add(cfg.sz.slice)))
		if err != nil {
			return err
		}
		if w.reads.n == 0 {
			continue // the whole slice went by inside one stalled request
		}
		p50 = append(p50, w.reads.quantile(0.50)/1e3)
		p99 = append(p99, w.reads.quantile(0.99)/1e3)
		qps = append(qps, float64(w.queries)/w.seconds)
		cpu = append(cpu, w.cpu*1e6/float64(w.queries))
		samples += int64(w.reads.n)
		total.reads.merge(&w.reads)
		total.writes.merge(&w.writes)
	}
	if len(p50) == 0 {
		return errors.New("no request completed inside any slice of the measured window")
	}
	perSlice := map[string][]float64{"lat_p50_us": p50, "throughput_qps": qps, "server_cpu_us_per_query": cpu}
	res.Slices = perSlice
	for _, d := range endToEnd {
		if xs, ok := perSlice[d.Name]; ok {
			v, thin := quiet(xs, d.Better)
			res.set(endToEnd, d.Name, v)
			res.Spread[d.Name] = thin
		}
	}
	v, _ := quiet(p99, "lower")
	res.context("lat_p99_us", v, "us")
	st, err := os.Stat(d.bundle)
	if err != nil {
		return err
	}
	res.set(endToEnd, "bundle_bytes", float64(st.Size()))
	res.context("lat_samples", float64(samples), "count")
	res.context("lat_p999_us", total.reads.quantile(0.999)/1e3, "us")

	if mixed != nil {
		if err := mixed.foldAndVerify(total); err != nil {
			return err
		}
	} else if err := r.serverStats(d.target.addr); err != nil {
		return err
	}
	res.context("server_rss_peak_mb", rssPeakMB(d.servers), "MB")
	if _, err := r.deploy(graphPath, cfg.sz.setups-before); err != nil {
		return err
	}
	res.set(endToEnd, "setup_s", median(r.setups))
	res.Spread["setup_s"] = spread(r.setups)
	res.Slices["setup_s"] = r.setups
	return nil
}

// serverStats reads the serving process's own counters after the run: the
// cache hit ratio and the tier split say whether the workload stressed what
// it was built to stress.
func (r *runner) serverStats(addr string) error {
	status, body, err := getJSON(addr, "/stats")
	if err != nil || status != 200 {
		return fmt.Errorf("GET /stats: status %d, %v", status, err)
	}
	var st struct {
		Cache *struct{ Hits, Misses, Evictions int64 }
		Tiers *struct {
			ExactHits      int64 `json:"exact_hits"`
			FilterDefinite int64 `json:"filter_definite"`
			FilterMaybe    int64 `json:"filter_maybe"`
		}
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	if c := st.Cache; c != nil && c.Hits+c.Misses > 0 {
		r.res.context("cache_hit_ratio", float64(c.Hits)/float64(c.Hits+c.Misses), "ratio")
	}
	if t := st.Tiers; t != nil && t.ExactHits+t.FilterDefinite+t.FilterMaybe > 0 {
		r.res.context("tier_traversal_ratio",
			float64(t.FilterMaybe)/float64(t.ExactHits+t.FilterDefinite+t.FilterMaybe), "ratio")
	}
	return nil
}

// redial replaces a connection that a transport error left in an unknown
// state; when that fails too the run is over.
func (r *runner) redial(c *conn) {
	addr := c.c.RemoteAddr().String()
	c.close()
	nc, err := dial(addr)
	if err != nil {
		r.broken = fmt.Errorf("reconnect to %s: %w", addr, err)
		return
	}
	*c = *nc
}

// pointTraffic sends GET /query for the pool entries the stream names.
type pointTraffic struct {
	r   *runner
	c   *conn
	pos int

	pi     uint32
	status int
	body   []byte
	err    error
}

func (t *pointTraffic) send() (bool, int) {
	in := t.r.in
	t.pi = in.stream[t.pos%len(in.stream)]
	t.pos++
	t.status, t.body, t.err = t.c.do(in.reqs.get(int(t.pi)))
	return false, 1
}

func (t *pointTraffic) check() {
	t.r.checkAnswer(t.c, t.r.in.pool[t.pi], t.status, t.body, t.err)
}

// checkAnswer holds one GET /query reply against the expected answer.
func (r *runner) checkAnswer(c *conn, q query, status int, body []byte, err error) {
	switch got, ok := reachable(body); {
	case err != nil:
		r.fail(1, "%s: transport: %v", q, err)
		r.redial(c)
	case status != 200 || !ok:
		r.fail(1, "%s: status %d: %s", q, status, body)
	case got != q.want:
		r.fail(1, "%s: answered %v, expected %v", q, got, q.want)
	}
}

// batchTraffic cycles through the pre-encoded POST /batch requests.
type batchTraffic struct {
	r   *runner
	c   *conn
	pos int

	at     int
	status int
	body   []byte
	err    error
}

func (t *batchTraffic) send() (bool, int) {
	in := t.r.in
	t.at = t.pos % in.bodies.len()
	t.pos++
	t.status, t.body, t.err = t.c.do(in.bodies.get(t.at))
	return false, t.r.cfg.sz.batchSize
}

func (t *batchTraffic) check() {
	r, n := t.r, t.r.cfg.sz.batchSize
	idx := r.in.bodyIdx[t.at*n : (t.at+1)*n]
	switch {
	case t.err != nil:
		r.fail(n, "batch %d: transport: %v", t.at, t.err)
		r.redial(t.c)
	case t.status != 200 || bytes.Contains(t.body, []byte(`"error"`)):
		r.fail(n, "batch %d: status %d: %.200s", t.at, t.status, t.body)
	default:
		seen := batchAnswers(t.body, func(i int, got bool) {
			if i < n && got != r.in.pool[idx[i]].want {
				r.fail(1, "batch %d slot %d: %s answered %v", t.at, i, r.in.pool[idx[i]], got)
			}
		})
		if seen != n {
			r.fail(n, "batch %d: %d results for %d queries", t.at, seen, n)
		}
	}
}

// mixedTraffic is the mixed-repl loop on one connection to the router:
// unpinned reads from the stream, and every writeEvery one single-edge
// POST /update followed by one read that carries the write's token and
// asks for exactly the edge just written.
type mixedTraffic struct {
	r *runner
	c *conn
	d *deployment

	pos       int
	nextWrite time.Time
	written   int  // withheld edges acknowledged so far
	pinned    bool // the next request is the read-your-write
	pin       []byte
	req       []byte

	kind   int // what the last request was: streamRead, update or pinnedRead
	pi     uint32
	status int
	body   []byte
	err    error

	acks                     []writeAck
	reads, followerReads     int64
	pinnedReads, pinnedAtLdr int64

	// The poller watches the follower's /healthz on its own connection.
	pollMu   sync.Mutex
	polls    []followerPoll
	cutAt    atomic.Int64 // unix nanos of the first poll that saw epoch >= 1
	pollStop chan struct{}
	pollDone chan struct{}
}

const (
	streamRead = iota
	update
	pinnedRead
)

type writeAck struct {
	at  time.Time
	seq uint64
}

type followerPoll struct {
	at         time.Time
	seq, epoch uint64
}

func newMixedTraffic(r *runner, c *conn, d *deployment) *mixedTraffic {
	m := &mixedTraffic{r: r, c: c, d: d, nextWrite: time.Now().Add(r.cfg.sz.writeEvery),
		pollStop: make(chan struct{}), pollDone: make(chan struct{})}
	go m.poll()
	return m
}

// health is the part of a replica's /healthz the harness reads.
type health struct {
	Epoch       uint64 `json:"epoch"`
	JournalSeq  uint64 `json:"journal_seq"`
	Fingerprint string `json:"bundle_fingerprint"`
}

func getHealth(c *conn) (health, error) {
	var h health
	status, body, err := c.do([]byte("GET /healthz HTTP/1.1\r\nHost: rlc\r\n\r\n"))
	if err != nil || status != 200 {
		return h, fmt.Errorf("GET /healthz: status %d, %v", status, err)
	}
	return h, json.Unmarshal(body, &h)
}

// poll samples the follower's applied sequence and epoch every 10 ms until
// stopped: replication lag and cutover are both read off these samples.
func (m *mixedTraffic) poll() {
	defer close(m.pollDone)
	c, err := dial(m.d.follower.addr)
	if err != nil {
		return
	}
	defer c.close()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-m.pollStop:
			return
		case <-tick.C:
		}
		h, err := getHealth(c)
		if err != nil {
			continue
		}
		now := time.Now()
		m.pollMu.Lock()
		m.polls = append(m.polls, followerPoll{now, h.JournalSeq, h.Epoch})
		m.pollMu.Unlock()
		if h.Epoch >= 1 {
			m.cutAt.CompareAndSwap(0, now.UnixNano())
		}
	}
}

func (m *mixedTraffic) stopPoller() {
	select {
	case <-m.pollStop:
	default:
		close(m.pollStop)
	}
	<-m.pollDone
}

func (m *mixedTraffic) send() (bool, int) {
	in := m.r.in
	switch now := time.Now(); {
	case m.pinned:
		m.kind, m.pinned = pinnedRead, false
		m.req = appendQueryRequest(m.req[:0], edgeQuery(in.withheld[m.written-1]), string(m.pin))
	case !now.Before(m.nextWrite) && m.written < len(in.withheld):
		m.kind = update
		m.req = appendUpdate(m.req[:0], in.withheld[m.written])
		// Keep the pace; after a stall, restart it instead of bursting.
		if m.nextWrite = m.nextWrite.Add(m.r.cfg.sz.writeEvery); m.nextWrite.Before(now) {
			m.nextWrite = now.Add(m.r.cfg.sz.writeEvery)
		}
	default:
		m.kind = streamRead
		m.pi = in.stream[m.pos%len(in.stream)]
		m.pos++
		m.status, m.body, m.err = m.c.do(in.reqs.get(int(m.pi)))
		return false, 1
	}
	m.status, m.body, m.err = m.c.do(m.req)
	return m.kind == update, 1
}

// edgeQuery asks whether e's endpoints are joined by (label)+ — TRUE from
// the moment e is in the graph.
func edgeQuery(e graph.Edge) query {
	return query{s: e.Src, t: e.Dst, a: e.Label, b: -1, want: true}
}

// pinSeq reads the sequence out of an "epoch:seq" token.
func pinSeq(pin []byte) (uint64, bool) {
	at := bytes.IndexByte(pin, ':')
	if at < 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(string(pin[at+1:]), 10, 64)
	return seq, err == nil
}

func (m *mixedTraffic) check() {
	r := m.r
	fromLeader := bytes.HasSuffix(m.c.backend, []byte(m.d.leader.addr))
	switch m.kind {
	case streamRead:
		r.checkAnswer(m.c, r.in.pool[m.pi], m.status, m.body, m.err)
		m.reads++
		if !fromLeader {
			m.followerReads++
		}
	case update:
		e := r.in.withheld[m.written]
		seq, ok := pinSeq(m.c.pin)
		switch {
		case m.err != nil:
			r.fail(1, "update %v: transport: %v", e, m.err)
			r.redial(m.c)
			return
		case m.status != 200 || !ok:
			r.fail(1, "update %v: status %d, token %q: %s", e, m.status, m.c.pin, m.body)
			return
		}
		m.acks = append(m.acks, writeAck{time.Now(), seq})
		m.pin = append(m.pin[:0], m.c.pin...)
		m.written++
		m.pinned = true
	case pinnedRead:
		q := edgeQuery(r.in.withheld[m.written-1])
		r.checkAnswer(m.c, q, m.status, m.body, m.err)
		sent, _ := pinSeq(m.pin)
		if got, ok := pinSeq(m.c.pin); m.err == nil && (!ok || got < sent) {
			r.fail(1, "%s: read pinned at %s came back with token %q", q, m.pin, m.c.pin)
		}
		m.pinnedReads++
		if fromLeader {
			m.pinnedAtLdr++
		}
	}
}

// foldDeadline is how long a fold and the follower's cutover may take
// together before the run gives up.
const foldDeadline = 2 * time.Minute

// foldAndVerify ends a mixed-repl run: a second connection asks the router
// for a fold while the load continues, the follower cuts over to the folded
// bundle, and the follower must then agree with the leader's coordinates
// and answer a sample exactly as product BFS does on the union graph.
func (m *mixedTraffic) foldAndVerify(steady *window) error {
	r, res := m.r, m.r.res
	res.context("write_p50_us", steady.writes.quantile(0.5)/1e3, "us")
	res.context("writes", float64(steady.writes.n), "count")

	type foldReply struct {
		seconds float64
		err     error
	}
	done := make(chan foldReply, 1)
	var folded atomic.Bool
	begin := time.Now()
	go func() {
		defer folded.Store(true)
		c, err := dial(m.d.target.addr)
		if err != nil {
			done <- foldReply{err: err}
			return
		}
		defer c.close()
		// A fold whose bundle's fsync waits behind a busy CPU has taken most
		// of a minute (cpu.go); the run fails at the cutover deadline below,
		// not before it.
		c.timeout = foldDeadline
		status, body, err := c.do(appendPost(nil, "/rebuild", nil))
		if err == nil && status != 200 {
			err = fmt.Errorf("POST /rebuild: status %d: %s", status, body)
		}
		done <- foldReply{time.Since(begin).Seconds(), err}
	}()
	deadline := begin.Add(foldDeadline)
	w, err := r.drive(m, m.d.servers, func(now time.Time) bool {
		return (folded.Load() && m.cutAt.Load() != 0) || now.After(deadline)
	})
	if err != nil {
		return err
	}
	fold := <-done
	if fold.err != nil {
		return fold.err
	}
	if m.cutAt.Load() == 0 {
		return errors.New("follower did not cut over to the folded epoch within 2 minutes")
	}
	res.context("fold_s", fold.seconds, "s")
	res.context("cutover_s", time.Unix(0, m.cutAt.Load()).Sub(begin).Seconds(), "s")
	res.context("fold_read_p99_us", w.reads.quantile(0.99)/1e3, "us")
	res.context("fold_reads", float64(w.reads.n), "count")
	if m.reads > 0 {
		res.context("follower_share", float64(m.followerReads)/float64(m.reads), "ratio")
	}
	if m.pinnedReads > 0 {
		res.context("pinned_leader_share", float64(m.pinnedAtLdr)/float64(m.pinnedReads), "ratio")
	}

	// Every write is acknowledged; wait until the follower has applied the
	// last one, then stop polling and read the lags off the samples.
	lc, err := dial(m.d.leader.addr)
	if err != nil {
		return err
	}
	defer lc.close()
	fc, err := dial(m.d.follower.addr)
	if err != nil {
		return err
	}
	defer fc.close()
	var lh, fh health
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if lh, err = getHealth(lc); err != nil {
			return err
		}
		if fh, err = getHealth(fc); err != nil {
			return err
		}
		if fh == lh {
			break
		}
		if time.Now().After(deadline) {
			r.fail(1, "follower at %+v never reached the leader's %+v", fh, lh)
			break
		}
	}
	m.stopPoller()
	if lh.Epoch != 1 || lh.JournalSeq != uint64(m.written) {
		r.fail(1, "leader at epoch %d seq %d after one fold and %d writes", lh.Epoch, lh.JournalSeq, m.written)
	}
	var lags []float64
	at := 0
	for _, a := range m.acks {
		for at < len(m.polls) && m.polls[at].seq < a.seq {
			at++
		}
		if at < len(m.polls) {
			lags = append(lags, max(0, m.polls[at].at.Sub(a.at).Seconds()*1e3))
		}
	}
	res.context("repl_lag_p50_ms", median(lags), "ms")

	// The union graph is built here from the start graph and the edges this
	// run wrote; nothing the servers produced goes into the expectation.
	union := graph.FromEdges(r.in.full.NumVertices(), r.in.full.NumLabels(),
		append(r.in.start.Edges(), r.in.withheld[:m.written]...))
	ev, nfas := traversal.NewEvaluator(union), nfaCache{}
	rnd := rand.New(rand.NewSource(r.cfg.seed*7919 + 5))
	var req []byte
	for i := 0; i < r.cfg.sz.verifySample; i++ {
		// Half from the pool, half fresh walks over the union graph, which
		// may run through edges that did not exist when the run began.
		q := r.in.pool[rnd.Intn(len(r.in.pool))]
		if i%2 == 1 {
			var ok bool
			if q, ok = mineWalk(rnd, union); !ok {
				continue
			}
		}
		nfa, err := nfas.of(q, union.NumLabels())
		if err != nil {
			return err
		}
		q.want = ev.BiBFS(q.s, q.t, nfa)
		req = appendQueryRequest(req[:0], q, "")
		status, body, err := fc.do(req)
		res.Attempted++
		r.checkAnswer(fc, q, status, body, err)
	}
	return r.broken
}
