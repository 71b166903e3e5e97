package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
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
// reopening goes through the real mmap path (use-after-unmap then crashes
// instead of silently reading stale heap bytes).
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

// TestHotSwapUnderLoad is the acceptance test for the RCU store: query
// goroutines hammer the serving path while the main goroutine swaps
// mmap-backed snapshots as fast as it can. Every query must succeed and
// answer consistently with SOME generation (the label-0 or the label-1
// chain) — never error, never crash on an unmapped snapshot, never observe
// a torn index. Run under -race in CI.
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
				// Torn-read probe: pin ONE generation and ask both
				// questions of it. Odd generations serve the label-0 chain,
				// even ones the label-1 chain, so within a pin exactly one
				// answer is true and it must match the pinned generation's
				// parity. Any other combination means a torn index.
				st := srv.Store().acquire()
				if st == nil {
					t.Errorf("reader %d: store closed mid-test", r)
					return
				}
				gen := st.gen
				a, errA := st.ix.Query(0, n-1, labelseq.Seq{0})
				b, errB := st.ix.Query(0, n-1, labelseq.Seq{1})
				st.release()
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

// TestStoreDrainClosesOldSnapshot pins the RCU retirement order: a swapped-
// out generation stays usable for a query that pinned it, and only the last
// release closes the backing snapshot.
func TestStoreDrainClosesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.rlcs")
	pathB := filepath.Join(dir, "b.rlcs")
	saveSnapshot(t, chainGraph(10, 0), pathA)
	saveSnapshot(t, chainGraph(10, 1), pathB)

	store := NewStoreFromSnapshot(openSnapshot(t, pathA), Options{})
	defer store.Close()

	st := store.acquire() // a long-running in-flight query pins generation 1
	if st == nil {
		t.Fatal("acquire failed")
	}
	store.SwapSnapshot(openSnapshot(t, pathB))

	// The pinned generation must still answer from its (retired but not yet
	// closed) mapping.
	ok, err := st.ix.Query(0, 9, labelseq.Seq{0})
	if err != nil || !ok {
		t.Fatalf("pinned old generation: (%v, %v), want (true, nil)", ok, err)
	}
	// New queries already see generation 2.
	ok, err = store.Index().Query(0, 9, labelseq.Seq{1})
	if err != nil || !ok {
		t.Fatalf("new generation: (%v, %v), want (true, nil)", ok, err)
	}
	if !st.retired.Load() {
		t.Fatal("old generation not marked retired after swap")
	}
	if st.refs.Load() != 1 {
		t.Fatalf("old generation refs = %d, want 1 (the pin)", st.refs.Load())
	}
	st.release() // drain: this must close the old snapshot
	if st.refs.Load() != 0 {
		t.Fatalf("refs after drain = %d", st.refs.Load())
	}
	// The mapping is gone; the closeOnce ran. (Dereferencing the old index
	// now would fault, which TestHotSwapUnderLoad exercises statistically.)
	closed := false
	st.closeOnce.Do(func() { closed = true })
	if closed {
		t.Fatal("snapshot was not closed by the draining release")
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
// the race with Close must not resurrect the store, and the incoming
// snapshot must be released instead of leaking its mapping.
func TestSwapAfterCloseStaysClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.rlcs")
	saveSnapshot(t, chainGraph(8, 0), path)

	store := NewStoreFromSnapshot(openSnapshot(t, path), Options{})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	late := openSnapshot(t, path) // the SIGHUP that arrived too late
	store.SwapSnapshot(late)
	if st := store.acquire(); st != nil {
		st.release()
		t.Fatal("swap after Close resurrected the store")
	}
	if store.Generation() != 0 {
		t.Fatalf("generation after close = %d", store.Generation())
	}
	if late.Index() != nil {
		t.Fatal("late snapshot not closed; its mapping leaks")
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

	opts := Options{}
	opts.SnapshotSource = func() (*core.Snapshot, error) {
		snap, err := core.OpenSnapshot(path)
		if err != nil {
			return nil, err
		}
		if err := snap.Verify(); err != nil {
			snap.Close()
			return nil, err
		}
		return snap, nil
	}
	srv := NewFromSnapshot(openSnapshot(t, path), opts)
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
