package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// chainGraph builds a two-label chain 0 -l-> 1 -l-> 2 ... where l is the
// given label, so (0, n-1, l+) is true exactly for that label. Swapping
// between the label-0 and label-1 variants makes the serving generation
// observable through query answers.
func chainGraph(n int, label graph.Label) *graph.Graph {
	b := graph.NewBuilder(n, 2)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Vertex(i), label, graph.Vertex(i+1))
	}
	return b.Build()
}

// saveSnapshot builds an index over g and writes its bundle to a file, so
// reopening goes through the real file open path.
func saveSnapshot(t testing.TB, g *graph.Graph, path string) {
	t.Helper()
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
}

func openSnapshot(t testing.TB, path string) *core.Snapshot {
	t.Helper()
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestHotSwapUnderLoad is the acceptance test for the store: query
// goroutines hammer the serving path while the main goroutine swaps
// file-backed snapshots as fast as it can. Every query must succeed and
// answer consistently with SOME generation (the label-0 or the label-1
// chain) — never error, never crash on a swapped-out snapshot, never
// observe a torn index. Run under -race in CI.
func TestHotSwapUnderLoad(t *testing.T) {
	const n = 50
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.rlcs")
	pathB := filepath.Join(dir, "b.rlcs")
	saveSnapshot(t, chainGraph(n, 0), pathA)
	saveSnapshot(t, chainGraph(n, 1), pathB)

	srv := NewFromSnapshot(openSnapshot(t, pathA), Options{})
	defer srv.Close()

	const (
		readers = 6
		swaps   = 300
	)
	var (
		stop    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	ctx := context.Background()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// The public path must never error, whatever the swap storm
				// is doing underneath.
				if _, err := srv.QueryRLC(ctx, 0, n-1, labelseq.Seq{0}); err != nil {
					t.Errorf("reader %d: public query: %v", r, err)
					return
				}
				// Torn-read probe: load ONE generation and ask both
				// questions of it. Odd generations serve the label-0 chain,
				// even ones the label-1 chain, so within one generation
				// exactly one answer is true and it must match that
				// generation's parity. Any other combination means a torn
				// index.
				st := srv.Store().current()
				if st == nil {
					t.Errorf("reader %d: store closed mid-test", r)
					return
				}
				gen := st.gen
				a, errA := st.ix.Query(0, n-1, labelseq.Seq{0})
				b, errB := st.ix.Query(0, n-1, labelseq.Seq{1})
				if errA != nil || errB != nil {
					t.Errorf("reader %d: pinned queries: %v, %v", r, errA, errB)
					return
				}
				if wantA := gen%2 == 1; a != wantA || b == wantA {
					t.Errorf("reader %d: torn read at generation %d: l0=%v l1=%v", r, gen, a, b)
					return
				}
				queries.Add(1)
			}
		}(r)
	}

	paths := [2]string{pathB, pathA}
	for i := 0; i < swaps && !t.Failed(); i++ {
		srv.Store().SwapSnapshot(openSnapshot(t, paths[i%2]))
	}
	stop.Store(true)
	wg.Wait()
	if got := srv.Store().Generation(); got != swaps+1 {
		t.Errorf("generation = %d, want %d", got, swaps+1)
	}
	t.Logf("%d queries raced %d snapshot swaps", queries.Load(), swaps)
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the swap storm")
	}
}

// TestStoreDrainClosesOldSnapshot: a swapped-out generation stays usable for
// a query that loaded it before the swap, while new queries see the new one.
func TestStoreDrainClosesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.rlcs")
	pathB := filepath.Join(dir, "b.rlcs")
	saveSnapshot(t, chainGraph(10, 0), pathA)
	saveSnapshot(t, chainGraph(10, 1), pathB)

	store := newStore(openSnapshot(t, pathA), Options{})
	defer store.Close()

	st := store.current() // a long-running in-flight query holds generation 1
	if st == nil {
		t.Fatal("store has no generation")
	}
	store.SwapSnapshot(openSnapshot(t, pathB))

	// The old generation must still answer from its own bundle.
	ok, err := st.ix.Query(0, 9, labelseq.Seq{0})
	if err != nil || !ok {
		t.Fatalf("old generation: (%v, %v), want (true, nil)", ok, err)
	}
	// New queries already see generation 2.
	ok, err = store.Index().Query(0, 9, labelseq.Seq{1})
	if err != nil || !ok {
		t.Fatalf("new generation: (%v, %v), want (true, nil)", ok, err)
	}
}

func TestStoreCloseRejectsQueries(t *testing.T) {
	srv := New(mustBuild(t, chainGraph(5, 0)), Options{})
	hts := httpdtest.NewServer(srv.Handler())
	defer hts.Close()
	if _, err := srv.QueryRLC(context.Background(), 0, 4, labelseq.Seq{0}); err != nil {
		t.Fatalf("pre-close query: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := srv.QueryRLC(context.Background(), 0, 4, labelseq.Seq{0}); err == nil {
		t.Fatal("query after Close succeeded")
	}
	resp, err := http.Get(hts.URL + "/query?s=0&t=4&l=l0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after Close = %d, want 503", resp.StatusCode)
	}
}

// TestSwapAfterCloseStaysClosed pins the shutdown race: a reload that loses
// the race with Close must not resurrect the store.
func TestSwapAfterCloseStaysClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.rlcs")
	saveSnapshot(t, chainGraph(8, 0), path)

	store := newStore(openSnapshot(t, path), Options{})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store.SwapSnapshot(openSnapshot(t, path)) // the SIGHUP that arrived too late
	if store.current() != nil {
		t.Fatal("swap after Close resurrected the store")
	}
	if store.Generation() != 0 {
		t.Fatalf("generation after close = %d", store.Generation())
	}
}

func mustBuild(t testing.TB, g *graph.Graph) *core.Index {
	t.Helper()
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestReloadEndpoint drives the full hot-reload flow over HTTP: serve
// bundle A, rewrite the path with bundle B, POST /reload, and watch the
// answers and the generation counter flip with zero downtime.
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.rlcs")
	saveSnapshot(t, chainGraph(12, 0), path)

	srv := NewFromSnapshot(openSnapshot(t, path), Options{SnapshotSource: func() (*core.Snapshot, error) {
		return core.OpenVerifiedSnapshot(path)
	}})
	defer srv.Close()
	hts := httpdtest.NewServer(srv.Handler())
	defer hts.Close()

	query := func() (bool, bool) {
		var qr queryResponse
		if code := getJSON(t, hts.URL+"/query?s=0&t=11&l=l0", &qr); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		var qr2 queryResponse
		if code := getJSON(t, hts.URL+"/query?s=0&t=11&l=l1", &qr2); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		return qr.Reachable, qr2.Reachable
	}
	if a, b := query(); !a || b {
		t.Fatalf("generation 1 answers (%v, %v), want (true, false)", a, b)
	}

	saveSnapshot(t, chainGraph(12, 1), path)
	resp, err := http.Post(hts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Generation != 2 {
		t.Fatalf("reload: status %d, generation %d", resp.StatusCode, rr.Generation)
	}
	if !strings.Contains(rr.Source, "serve.rlcs") {
		t.Fatalf("reload source %q", rr.Source)
	}
	if a, b := query(); a || !b {
		t.Fatalf("generation 2 answers (%v, %v), want (false, true)", a, b)
	}
	var st statsResponse
	getJSON(t, hts.URL+"/stats", &st)
	if st.Generation != 2 || !strings.Contains(st.Source, "serve.rlcs") {
		t.Fatalf("stats after reload: generation %d source %q", st.Generation, st.Source)
	}
}

// TestBundleOverwrittenInPlace: a served bundle is read into the heap at
// open, so its file can be truncated or rewritten in place under a running
// server. Queries keep answering exactly from the bytes read, a reload of the
// torn file is refused as corrupt with the generation unchanged, and a reload
// after another bundle lands at the same path (no rename) serves that one.
func TestBundleOverwrittenInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.rlcs")
	g := graph.Fig2()
	saveSnapshot(t, g, path)
	snap, err := core.OpenVerifiedSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFromSnapshot(snap, Options{SnapshotSource: func() (*core.Snapshot, error) {
		return core.OpenVerifiedSnapshot(path)
	}})
	defer srv.Close()
	hts := httpdtest.NewServer(srv.Handler())
	defer hts.Close()

	exact := func(g *graph.Graph, when string) {
		t.Helper()
		n := graph.Vertex(g.NumVertices())
		for s := graph.Vertex(0); s < n; s++ {
			for d := graph.Vertex(0); d < n; d++ {
				for _, l := range []labelseq.Seq{{0}, {1}, {2}, {0, 1}, {1, 2}, {2, 0}} {
					want, err := traversal.EvalRLC(g, s, d, l)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := srv.QueryRLC(context.Background(), s, d, l); err != nil || got != want {
						t.Fatalf("%s: (%d, %d, %v+) = %v, %v; want %v", when, s, d, l, got, err, want)
					}
				}
			}
		}
	}
	// (v1, v4, l1+) is false on Fig. 2 and true once the edge v1 -l1-> v4 is in.
	flipped := func() bool {
		var qr queryResponse
		if code := getJSON(t, hts.URL+"/query?s=0&t=3&l=0", &qr); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		return qr.Reachable
	}

	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	exact(g, "after truncation")
	var e errorResponse
	if code := postJSON(t, hts.URL+"/reload", "", &e); code != http.StatusInternalServerError || e.Code != "corrupt_snapshot" {
		t.Fatalf("reload of a truncated bundle: status %d, %+v; want 500 corrupt_snapshot", code, e)
	}
	if gen := srv.Store().Generation(); gen != 1 {
		t.Fatalf("generation %d after a refused reload, want 1", gen)
	}
	exact(g, "after a refused reload")
	if flipped() {
		t.Fatal("(v1, v4, l1+) is true before the new bundle")
	}

	g2 := unionOf(g, []graph.Edge{{Src: 0, Dst: 3, Label: 0}})
	var buf bytes.Buffer
	if err := mustBuild(t, g2).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var rr reloadResponse
	if code := postJSON(t, hts.URL+"/reload", "", &rr); code != http.StatusOK || rr.Generation != 2 {
		t.Fatalf("reload of the rewritten bundle: status %d, generation %d", code, rr.Generation)
	}
	exact(g2, "after the rewrite")
	if !flipped() {
		t.Fatal("(v1, v4, l1+) is still false after the reload")
	}
}

// TestReloadUnconfigured pins the 501 for servers without a snapshot source.
func TestReloadUnconfigured(t *testing.T) {
	srv := New(mustBuild(t, chainGraph(5, 0)), Options{})
	defer srv.Close()
	hts := httpdtest.NewServer(srv.Handler())
	defer hts.Close()
	resp, err := http.Post(hts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestErrorCodes pins the typed error codes on the wire: clients must be
// able to classify failures without parsing message text.
func TestErrorCodes(t *testing.T) {
	g := graph.Fig2()
	srv := New(mustBuild(t, g), Options{})
	defer srv.Close()
	hts := httpdtest.NewServer(srv.Handler())
	defer hts.Close()

	cases := []struct {
		name string
		url  string
		code string
	}{
		{"vertex range", hts.URL + "/query?s=0&t=99&l=l1", "vertex_range"},
		{"vertex range s", hts.URL + "/query?s=-1&t=0&l=l1", "vertex_range"},
	}
	for _, c := range cases {
		var e errorResponse
		if code := getJSON(t, c.url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", c.name, code)
		}
		if e.Code != c.code {
			t.Errorf("%s: code %q, want %q (error: %s)", c.name, e.Code, c.code, e.Error)
		}
	}

	// Batch slots carry codes too.
	body := `{"queries":[{"s":0,"t":99,"l":"l1"},{"s":0,"t":1,"l":"l1 l1"}]}`
	resp, err := http.Post(hts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Results) != 2 {
		t.Fatalf("results: %+v", br.Results)
	}
	if br.Results[0].Code != "vertex_range" {
		t.Errorf("batch slot 0 code %q", br.Results[0].Code)
	}
	if br.Results[1].Code != "not_minimum_repeat" {
		t.Errorf("batch slot 1 code %q", br.Results[1].Code)
	}
	if errorCode(fmt.Errorf("wrapped: %w", context.Canceled)) != "canceled" {
		t.Error("canceled code lost through wrapping")
	}
}

// TestEveryGenerationIsABundle holds the store's one invariant about its
// generations: each is a bundle, however it came to serve. For a server over
// an index built in process, a fold with and without RebuildPath, a
// follower's adopted fold and a reload, the replication coordinates give
// the size of the bytes Bundle ships, those bytes are exactly what
// WriteSnapshot renders for the served index and open and verify as they
// are, and /healthz names their fingerprint.
func TestEveryGenerationIsABundle(t *testing.T) {
	g := graph.Fig2()
	check := func(t *testing.T, srv *Server) []byte {
		t.Helper()
		rs := srv.ReplState()
		_, raw, err := srv.Bundle(rs.Epoch)
		if err != nil {
			t.Fatalf("Bundle(%d): %v", rs.Epoch, err)
		}
		if rs.BundleBytes != int64(len(raw)) {
			t.Errorf("ReplState().BundleBytes = %d, Bundle ships %d bytes", rs.BundleBytes, len(raw))
		}
		var fresh bytes.Buffer
		if err := srv.Store().Index().WriteSnapshot(&fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, fresh.Bytes()) {
			t.Errorf("Bundle ships %d bytes that differ from the %d WriteSnapshot renders for the served index", len(raw), fresh.Len())
		}
		snap, err := core.OpenSnapshotBytes(raw)
		if err == nil {
			err = snap.Verify()
		}
		if err != nil {
			t.Fatalf("the served bundle does not open and verify: %v", err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h healthzResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("/healthz: %v: %s", err, rec.Body)
		}
		if want := snap.Fingerprint().Compact(); h.BundleFingerprint != want {
			t.Errorf("/healthz bundle_fingerprint = %s, the bundle's is %s", h.BundleFingerprint, want)
		}
		return raw
	}
	mutable := Options{Mutable: true, RebuildThreshold: -1}
	fold := func(t *testing.T, srv *Server) {
		t.Helper()
		if _, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Label: 0, Dst: 3}}); err != nil {
			t.Fatal(err)
		}
		if res, err := srv.Rebuild(); err != nil || res.Epoch != 1 || res.Folded != 1 {
			t.Fatalf("fold: %+v, %v", res, err)
		}
	}

	t.Run("New", func(t *testing.T) {
		check(t, New(buildIndex(t, g), Options{}))
	})
	t.Run("fold", func(t *testing.T) {
		srv := New(buildIndex(t, g), mutable)
		fold(t, srv)
		check(t, srv)
	})
	t.Run("fold with RebuildPath", func(t *testing.T) {
		opts := mutable
		opts.RebuildPath = filepath.Join(t.TempDir(), "fold.rlcs")
		srv := New(buildIndex(t, g), opts)
		fold(t, srv)
		raw := check(t, srv)
		onDisk, err := os.ReadFile(opts.RebuildPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, raw) {
			t.Errorf("RebuildPath holds %d bytes, the fold serves %d others", len(onDisk), len(raw))
		}
	})
	t.Run("AdoptFolded", func(t *testing.T) {
		leader := New(buildIndex(t, g), mutable)
		fold(t, leader)
		rs, raw, err := leader.Bundle(1)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := core.OpenSnapshotBytes(raw)
		if err == nil {
			err = snap.Verify()
		}
		if err != nil {
			t.Fatal(err)
		}
		follower := New(buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1, Role: "follower"})
		if err := follower.AdoptFolded(snap, nil, rs.Epoch, rs.SeqBase, "adopted"); err != nil {
			t.Fatal(err)
		}
		check(t, follower)
	})
	t.Run("Reload", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.rlcs")
		saveSnapshot(t, g, path)
		srv := New(buildIndex(t, chainGraph(4, 0)), Options{
			SnapshotSource: func() (*core.Snapshot, error) { return core.OpenVerifiedSnapshot(path) },
		})
		if gen, err := srv.Reload(); err != nil || gen != 2 {
			t.Fatalf("Reload: generation %d, %v", gen, err)
		}
		check(t, srv)
	})
}
