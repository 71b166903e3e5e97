package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/server"
)

func buildServer(t *testing.T, g *graph.Graph, role string) *server.Server {
	t.Helper()
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatalf("build index: %v", err)
	}
	srv := server.New(ix, server.Options{Mutable: true, RebuildThreshold: -1, Role: role})
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testEdges(g *graph.Graph, n, salt int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		k := i + salt
		edges[i] = graph.Edge{
			Src:   graph.Vertex(k % g.NumVertices()),
			Dst:   graph.Vertex((k * 5) % g.NumVertices()),
			Label: graph.Label(k % g.NumLabels()),
		}
	}
	return edges
}

// startLeader serves a leader through httpd with a fast poll tick.
func startLeader(t *testing.T, srv *server.Server) (*Leader, *httpdtest.Server) {
	t.Helper()
	l := NewLeader(srv)
	l.pollInterval = time.Millisecond
	hts := httpdtest.NewServer(l.Handler())
	t.Cleanup(hts.Close)
	return l, hts
}

func newTestFollower(t *testing.T, srv *server.Server, leaderURL string) *Follower {
	t.Helper()
	f := NewFollower(srv, FollowerOptions{
		LeaderURL: leaderURL,
		PollWait:  50 * time.Millisecond,
		Logf:      t.Logf,
	})
	f.retryInterval = 10 * time.Millisecond
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWireRoundtrip pins the frame codec: any edge slice survives
// encode/decode with its sequence numbering intact, chunked at the cap.
func TestWireRoundtrip(t *testing.T) {
	g := graph.Fig2()
	for _, n := range []int{0, 1, 31, 32, MaxSegmentEdges, MaxSegmentEdges + 3, 3*MaxSegmentEdges + 17} {
		edges := testEdges(g, n, n)
		var buf bytes.Buffer
		if err := WriteSegments(&buf, 1000, edges); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		var got []graph.Edge
		cursor := uint64(1000)
		for {
			start, seg, err := ReadSegment(&buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("n=%d: read: %v", n, err)
			}
			if start != cursor {
				t.Fatalf("n=%d: frame starts at %d, want %d", n, start, cursor)
			}
			if len(seg) > MaxSegmentEdges {
				t.Fatalf("n=%d: frame of %d edges exceeds cap", n, len(seg))
			}
			got = append(got, seg...)
			cursor += uint64(len(seg))
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d edges", n, len(got))
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("n=%d: edge %d: %+v != %+v", n, i, got[i], edges[i])
			}
		}
	}
}

// TestWireCorruption flips every byte of an encoded stream in turn; no
// corruption may decode cleanly to the original content, and truncations
// must never read as complete streams.
func TestWireCorruption(t *testing.T) {
	g := graph.Fig2()
	edges := testEdges(g, 5, 0)
	var buf bytes.Buffer
	if err := WriteSegments(&buf, 7, edges); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	decode := func(b []byte) ([]graph.Edge, error) {
		r := bytes.NewReader(b)
		var out []graph.Edge
		for {
			_, seg, err := ReadSegment(r)
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			out = append(out, seg...)
		}
	}

	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		got, err := decode(mut)
		if err == nil && len(got) == len(edges) {
			same := true
			for j := range got {
				if got[j] != edges[j] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("flip at byte %d decoded to the original content undetected", i)
			}
		}
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, err := decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d read as a complete stream", cut)
		}
	}
}

// TestReplicationAndCutover is the package's end-to-end: a follower
// replays live segments, survives a fold via bundle cutover, and converges
// to the leader's exact coordinates and answers.
func TestReplicationAndCutover(t *testing.T) {
	g := graph.Fig2()
	leaderSrv := buildServer(t, g, "leader")
	_, hts := startLeader(t, leaderSrv)
	followerSrv := buildServer(t, g, "follower")
	fol := newTestFollower(t, followerSrv, hts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	// Live segment replication.
	batch1 := testEdges(g, 37, 1)
	if _, err := leaderSrv.UpdateBatch(batch1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "segment catch-up", func() bool {
		return followerSrv.ReplState().Seq == uint64(len(batch1))
	})

	// Fold on the leader; the follower must cut over to epoch 1.
	if _, err := leaderSrv.Rebuild(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "epoch cutover", func() bool {
		return followerSrv.ReplState().Epoch == 1
	})

	// More segments on top of the new epoch.
	batch2 := testEdges(g, 9, 100)
	if _, err := leaderSrv.UpdateBatch(batch2); err != nil {
		t.Fatal(err)
	}
	want := leaderSrv.ReplState()
	waitFor(t, 5*time.Second, "post-cutover catch-up", func() bool {
		return followerSrv.ReplState().Seq == want.Seq
	})

	got := followerSrv.ReplState()
	if got.Epoch != want.Epoch || got.SeqBase != want.SeqBase || got.Fingerprint != want.Fingerprint {
		t.Fatalf("follower %+v diverges from leader %+v", got, want)
	}
	for s := 0; s < g.NumVertices(); s++ {
		for d := 0; d < g.NumVertices(); d++ {
			for l := 0; l < g.NumLabels(); l++ {
				lw, _, err1 := leaderSrv.AnswerRLC(ctx, graph.Vertex(s), graph.Vertex(d), []graph.Label{graph.Label(l)})
				fw, _, err2 := followerSrv.AnswerRLC(ctx, graph.Vertex(s), graph.Vertex(d), []graph.Label{graph.Label(l)})
				if err1 != nil || err2 != nil {
					t.Fatalf("(%d,%d,l%d): errs %v %v", s, d, l, err1, err2)
				}
				if lw != fw {
					t.Fatalf("(%d,%d,l%d): leader %v follower %v", s, d, l, lw, fw)
				}
			}
		}
	}
	if st := fol.Stats(); st.Cutovers != 1 || st.Edges != uint64(len(batch1)+len(batch2)) {
		t.Fatalf("follower stats %+v, want 1 cutover, %d edges", st, len(batch1)+len(batch2))
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestCutoverDoesNotWaitOutThePoll: on an idle leader the follower is parked
// in a long poll when a fold lands; the poll must end with the fold, not at
// its deadline, so the follower serves the new bundle at once.
func TestCutoverDoesNotWaitOutThePoll(t *testing.T) {
	g := graph.Fig2()
	leaderSrv := buildServer(t, g, "leader")
	l := NewLeader(leaderSrv) // the shipped 5 ms re-check, not the tests' 1 ms
	hts := httpdtest.NewServer(l.Handler())
	t.Cleanup(hts.Close)
	followerSrv := buildServer(t, g, "follower")
	fol := NewFollower(followerSrv, FollowerOptions{LeaderURL: hts.URL, PollWait: 2 * time.Second, Logf: t.Logf})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)
	// Something to fold (an empty journal makes /rebuild a no-op), then let
	// the next poll park: nothing left to replicate, so it can only wait.
	batch := testEdges(g, 5, 1)
	if _, err := leaderSrv.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "segment catch-up", func() bool {
		return followerSrv.ReplState().Seq == uint64(len(batch))
	})
	time.Sleep(50 * time.Millisecond)

	resp, err := http.Post(hts.URL+"/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: status %d", resp.StatusCode)
	}
	want := leaderSrv.ReplState()
	if want.Epoch != 1 {
		t.Fatalf("leader epoch %d after rebuild, want 1", want.Epoch)
	}
	waitFor(t, 250*time.Millisecond, "cutover within 250 ms of the fold", func() bool {
		got := followerSrv.ReplState()
		return got.Epoch == want.Epoch && got.Fingerprint == want.Fingerprint
	})
}

// TestLateJoinerBootstrapsFromBundle starts a follower only after the
// leader has already folded: its cursor predates the leader's base, so the
// first poll answers 410 and the follower must bootstrap straight from the
// bundle.
func TestLateJoinerBootstrapsFromBundle(t *testing.T) {
	g := graph.Fig2()
	leaderSrv := buildServer(t, g, "leader")
	_, hts := startLeader(t, leaderSrv)

	if _, err := leaderSrv.UpdateBatch(testEdges(g, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := leaderSrv.Rebuild(); err != nil {
		t.Fatal(err)
	}
	want := leaderSrv.ReplState()

	followerSrv := buildServer(t, g, "follower")
	fol := newTestFollower(t, followerSrv, hts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { fol.Run(ctx) }()

	waitFor(t, 5*time.Second, "late-join bootstrap", func() bool {
		got := followerSrv.ReplState()
		return got.Epoch == want.Epoch && got.Seq == want.Seq
	})
	if got := followerSrv.ReplState(); got.Fingerprint != want.Fingerprint {
		t.Fatalf("late joiner fingerprint %s, want %s", got.Fingerprint, want.Fingerprint)
	}
}

// TestForeignLogRefused points a follower at a leader serving a different
// lineage; Run must stop with the permanent foreign-log error before
// applying anything.
func TestForeignLogRefused(t *testing.T) {
	// A different graph: Fig2 plus one extra edge changes the fingerprint.
	g := graph.Fig2()
	b := graph.NewBuilder(g.NumVertices(), g.NumLabels())
	for _, e := range g.Edges() {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	b.AddEdge(0, 0, graph.Vertex(g.NumVertices()-1))
	foreign := b.Build()

	leaderSrv := buildServer(t, foreign, "leader")
	_, hts := startLeader(t, leaderSrv)
	followerSrv := buildServer(t, graph.Fig2(), "follower")
	fol := newTestFollower(t, followerSrv, hts.URL)

	// Advance the leader past the follower (same seq universe, different
	// lineage) so contiguity alone cannot save us — only the origin check.
	if _, err := leaderSrv.UpdateBatch(testEdges(foreign, 3, 0)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fol.Run(ctx)
	if !errors.Is(err, errForeignLog) {
		t.Fatalf("Run returned %v, want foreign-log refusal", err)
	}
	if followerSrv.ReplState().Seq != 0 {
		t.Fatal("follower applied edges from a foreign lineage")
	}
}
