package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/router"
	"github.com/g-rpqs/rlc-go/internal/server"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// clusterSoakConfig sizes one replicated-tier soak (see runClusterSoak).
type clusterSoakConfig struct {
	nVertices, nLabels, baseEdges int
	inserts, foldEvery            int
	readers, perReader, poolSize  int
}

// TestClusterSoakPinnedRouter is the replication tier's acceptance proof:
// a leader, two replicating followers, and an epoch-pinned router run on
// loopback HTTP while ≥100k mixed queries flow through the router under
// pin tokens, concurrent with leader ingestion and ≥3 fold/cutover epochs
// — and EVERY answer is checked against a linearizability oracle at its
// pinned coordinates, with zero backwards reads.
//
// The oracle is the same enabling-prefix construction as the server soak
// (see TestMutableSoakOracle): inserts are pre-planned, and each pool
// query's enabling prefix e(q) — the insert count after which it first
// turns true — is precomputed by monotone binary search. The replication
// twist is that the bracket comes from the wire, not from process-local
// counters: the X-Rlc-Seq response header is the serving replica's applied
// sequence captured BEFORE the answer was computed, and the global
// sequence is exactly the number of stream inserts applied (the writer is
// single-threaded and segment replay preserves leader journal order). So:
//
//	FALSE at responseSeq  ⇒  responseSeq < e(q)   (a lost or reordered
//	    journal edge on any replica lands here), and
//	TRUE                  ⇒  e(q) inserts had started by response time
//	    (an answer from the future — foreign data — lands here),
//
// no matter which replica served, how far it lagged, or which epoch it
// was on. Pin discipline is asserted per response: the serving replica's
// sequence must be at or past the request pin (the router never routes
// behind a pin) and the returned token must never regress.
func TestClusterSoakPinnedRouter(t *testing.T) {
	runClusterSoak(t, clusterSoakConfig{
		nVertices: 150, nLabels: 2, baseEdges: 400,
		inserts: 600, foldEvery: 150, // 600/150 => 4 fold/cutover epochs
		readers: 4, perReader: 25000, poolSize: 64, // 4 x 25k = 100k queries
	})
}

func runClusterSoak(t *testing.T, cfg clusterSoakConfig) {
	if testing.Short() {
		t.Skip("cluster soak skipped in -short mode")
	}
	r := rand.New(rand.NewSource(42))
	g, err := gen.ER(cfg.nVertices, cfg.baseEdges, cfg.nLabels, 13)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]graph.Edge, cfg.inserts)
	for i := range stream {
		stream[i] = graph.Edge{
			Src:   graph.Vertex(r.Intn(cfg.nVertices)),
			Dst:   graph.Vertex(r.Intn(cfg.nVertices)),
			Label: graph.Label(r.Intn(cfg.nLabels)),
		}
	}

	// Oracle precomputation: enabling prefix per pool query.
	type poolQuery struct {
		s, t     graph.Vertex
		l        labelseq.Seq
		expr     string // the l= parameter spelling of the sequence
		enabling int    // first prefix length making it true; inserts+1 = never
	}
	seqs := []labelseq.Seq{{0}, {1}, {0, 1}, {1, 0}}
	prefixes := map[int]*graph.Graph{}
	prefix := func(p int) *graph.Graph {
		if u, ok := prefixes[p]; ok {
			return u
		}
		b := graph.NewBuilder(g.NumVertices(), g.NumLabels())
		for _, e := range g.Edges() {
			b.AddEdge(e.Src, e.Label, e.Dst)
		}
		for _, e := range stream[:p] {
			b.AddEdge(e.Src, e.Label, e.Dst)
		}
		u := b.Build()
		prefixes[p] = u
		return u
	}
	evalAt := func(q *poolQuery, p int) bool {
		ok, err := traversal.EvalRLC(prefix(p), q.s, q.t, q.l)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	pool := make([]poolQuery, cfg.poolSize)
	for i := range pool {
		q := &pool[i]
		q.s = graph.Vertex(r.Intn(cfg.nVertices))
		q.t = graph.Vertex(r.Intn(cfg.nVertices))
		q.l = seqs[r.Intn(len(seqs))]
		parts := make([]string, len(q.l))
		for j, lb := range q.l {
			parts[j] = g.LabelName(lb)
		}
		q.expr = strings.Join(parts, " ")
		switch {
		case evalAt(q, 0):
			q.enabling = 0
		case !evalAt(q, cfg.inserts):
			q.enabling = cfg.inserts + 1
		default:
			lo, hi := 1, cfg.inserts
			for lo < hi {
				mid := (lo + hi) / 2
				if evalAt(q, mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			q.enabling = lo
		}
	}

	// The tier: leader + 2 replicating followers + router, all on loopback.
	build := func(role string) *server.Server {
		ix, err := core.Build(g, core.Options{K: 2})
		if err != nil {
			t.Fatalf("build index: %v", err)
		}
		srv := server.New(ix, server.Options{Mutable: true, RebuildThreshold: -1, Role: role})
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	leaderSrv := build("leader")
	ldr := NewLeader(leaderSrv)
	ldr.pollInterval = 2 * time.Millisecond
	leaderHTS := httpdtest.NewServer(ldr.Handler())
	t.Cleanup(leaderHTS.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	followerSrvs := make([]*server.Server, 2)
	followers := make([]*Follower, 2)
	followerURLs := make([]string, 2)
	for i := range followerSrvs {
		srv := build("follower")
		followerSrvs[i] = srv
		hts := httpdtest.NewServer(srv.Handler())
		t.Cleanup(hts.Close)
		followerURLs[i] = hts.URL
		fol := NewFollower(srv, FollowerOptions{
			LeaderURL: leaderHTS.URL,
			PollWait:  200 * time.Millisecond,
		})
		fol.retryInterval = 20 * time.Millisecond
		followers[i] = fol
		go fol.Run(ctx)
	}

	// The test's own clients share one transport with a deep idle pool:
	// ~200k loopback requests reuse connections instead of churning sockets
	// (the router's upstream pool does the same on its side).
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	rt := router.New(router.Options{
		LeaderURL:      leaderHTS.URL,
		FollowerURLs:   followerURLs,
		HealthInterval: 25 * time.Millisecond,
		HedgeDelay:     100 * time.Millisecond,
	})
	rt.Refresh(ctx)
	go rt.Run(ctx)
	routerHTS := httpdtest.NewServer(rt.Handler())
	t.Cleanup(routerHTS.Close)

	var (
		started    atomic.Int64 // inserts whose router POST has begun
		reads      atomic.Int64
		wrong      atomic.Int64
		writerDone atomic.Bool
		writeSeq   atomic.Uint64 // freshest write-token sequence minted
		writeEpoch atomic.Uint64
	)
	var servedMu sync.Mutex
	served := map[string]int64{}

	fail := func(format string, args ...any) {
		wrong.Add(1)
		t.Errorf(format, args...)
	}
	parsePin := func(tok string) (epoch, seq uint64, err error) {
		e, s, ok := strings.Cut(tok, ":")
		if !ok {
			return 0, 0, fmt.Errorf("bad pin %q", tok)
		}
		epoch, err1 := strconv.ParseUint(e, 10, 64)
		seq, err2 := strconv.ParseUint(s, 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("bad pin %q", tok)
		}
		return epoch, seq, nil
	}

	// Interleave the full query volume with the full insert stream, as in
	// the server soak: the writer waits for reader progress so every fold
	// and cutover lands in the middle of routed traffic.
	pace := int64(cfg.readers*cfg.perReader) / int64(cfg.inserts)
	var wg sync.WaitGroup
	for w := 0; w < cfg.readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			var pinEpoch, pinSeq uint64
			for i := 0; i < cfg.perReader && wrong.Load() == 0; i++ {
				// Every 8th read raises the pin to the freshest write token:
				// read-your-write pressure that keeps excluding lagging
				// replicas as ingestion advances.
				if i%8 == 0 {
					if ws := writeSeq.Load(); ws > pinSeq {
						pinEpoch, pinSeq = writeEpoch.Load(), ws
					}
				}
				q := &pool[rr.Intn(cfg.poolSize)]
				v := url.Values{}
				v.Set("s", strconv.Itoa(int(q.s)))
				v.Set("t", strconv.Itoa(int(q.t)))
				v.Set("l", q.expr)
				req, err := http.NewRequest(http.MethodGet, routerHTS.URL+"/query?"+v.Encode(), nil)
				if err != nil {
					fail("build query: %v", err)
					return
				}
				req.Header.Set(router.HeaderPin, fmt.Sprintf("%d:%d", pinEpoch, pinSeq))
				resp, err := client.Do(req)
				if err != nil {
					fail("routed query: %v", err)
					return
				}
				w1 := started.Load() // inserts started before the answer arrived
				var body struct {
					Reachable bool `json:"reachable"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&body)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					fail("routed query: status %d, decode %v", resp.StatusCode, derr)
					return
				}
				respSeq, err := strconv.ParseUint(resp.Header.Get(server.HeaderSeq), 10, 64)
				if err != nil {
					fail("response seq header: %v", err)
					return
				}
				_, tokSeq, err := parsePin(resp.Header.Get(router.HeaderPin))
				if err != nil {
					fail("response pin: %v", err)
					return
				}
				// Pin discipline: never served behind the pin, token never
				// regresses.
				if respSeq < pinSeq {
					fail("routed behind the pin: backend at seq %d, pin %d (backend %s)",
						respSeq, pinSeq, resp.Header.Get(router.HeaderBackend))
					return
				}
				if tokSeq < pinSeq {
					fail("token went backwards: %d after pin %d", tokSeq, pinSeq)
					return
				}
				// Linearizability envelope at the pinned coordinates.
				if body.Reachable && int(w1) < q.enabling {
					fail("true before any enabling insert: (%d,%d,%q) e=%d w1=%d", q.s, q.t, q.expr, q.enabling, w1)
					return
				}
				if !body.Reachable && respSeq >= uint64(q.enabling) {
					fail("false at seq %d >= enabling %d: (%d,%d,%q)", respSeq, q.enabling, q.s, q.t, q.expr)
					return
				}
				epoch, _, _ := parsePin(resp.Header.Get(router.HeaderPin))
				pinEpoch, pinSeq = epoch, tokSeq
				servedMu.Lock()
				served[resp.Header.Get(router.HeaderBackend)]++
				servedMu.Unlock()
				reads.Add(1)
			}
		}(int64(9000 + w))
	}

	// Writer: single-edge inserts through the router (which forwards to the
	// leader and mints the write token), folding the leader every foldEvery
	// inserts so followers must cut over mid-traffic.
	for i, e := range stream {
		for reads.Load() < int64(i)*pace && wrong.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		if wrong.Load() != 0 {
			break
		}
		payload := fmt.Sprintf(`{"s":%d,"l":%d,"t":%d}`, e.Src, e.Label, e.Dst)
		started.Add(1)
		resp, err := client.Post(routerHTS.URL+"/update", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		tok := resp.Header.Get(router.HeaderPin)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: status %d", i, resp.StatusCode)
		}
		epoch, seq, err := parsePin(tok)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("insert %d minted token seq %d, want %d", i, seq, i+1)
		}
		writeEpoch.Store(epoch)
		writeSeq.Store(seq)
		if (i+1)%cfg.foldEvery == 0 {
			if _, err := leaderSrv.Rebuild(); err != nil {
				t.Fatalf("fold after insert %d: %v", i, err)
			}
		}
	}
	writerDone.Store(true)
	wg.Wait()
	if wrong.Load() > 0 {
		t.Fatalf("%d oracle/pin violations", wrong.Load())
	}
	if got := reads.Load(); got != int64(cfg.readers*cfg.perReader) {
		t.Fatalf("completed %d routed reads, want %d", got, cfg.readers*cfg.perReader)
	}

	// Convergence: both followers reach the leader's exact coordinates and
	// fingerprint, having cut over at least 3 epochs each.
	want := leaderSrv.ReplState()
	wantEpochs := uint64(cfg.inserts / cfg.foldEvery)
	if want.Epoch != wantEpochs {
		t.Fatalf("leader at epoch %d, want %d", want.Epoch, wantEpochs)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, srv := range followerSrvs {
		for {
			got := srv.ReplState()
			if got.Epoch == want.Epoch && got.Seq == want.Seq && got.Fingerprint == want.Fingerprint {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d stuck at %+v, leader %+v", i, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if c := followers[i].Stats().Cutovers; c < 3 {
			t.Fatalf("follower %d completed %d cutovers, want >= 3", i, c)
		}
	}

	// Final exactness: every pool query's converged answer, on every node,
	// matches a direct traversal of the full graph.
	for i := range pool {
		q := &pool[i]
		truth := evalAt(q, cfg.inserts)
		for j, srv := range append([]*server.Server{leaderSrv}, followerSrvs...) {
			got, _, err := srv.AnswerRLC(ctx, q.s, q.t, q.l)
			if err != nil {
				t.Fatalf("node %d query %d: %v", j, i, err)
			}
			if got != truth {
				t.Fatalf("node %d: (%d,%d,%q) = %v, want %v", j, q.s, q.t, q.expr, got, truth)
			}
		}
	}

	// Load actually spread: every backend served routed reads.
	for _, u := range append([]string{leaderHTS.URL}, followerURLs...) {
		if served[u] == 0 {
			t.Errorf("backend %s served no routed reads (distribution: %v)", u, served)
		}
	}
	t.Logf("soak: %d routed reads, distribution %v, %d epochs", reads.Load(), served, want.Epoch)
}
