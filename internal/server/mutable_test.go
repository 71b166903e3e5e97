package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

func genER(n, m, labels int, seed int64) (*graph.Graph, error) {
	return gen.ER(n, m, labels, seed)
}

func compileExpr(t *testing.T, text string, g *graph.Graph) *automaton.NFA {
	t.Helper()
	e, err := automaton.ParseForGraph(text, g)
	if err != nil {
		t.Fatal(err)
	}
	nfa, err := automaton.Compile(e, g.NumLabels())
	if err != nil {
		t.Fatal(err)
	}
	return nfa
}

func postJSON(t *testing.T, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestUpdateFlipsAnswerOverHTTP is the end-to-end write-path acceptance
// gate: a query answers false, an update lands, and the very next query
// answers true — the delta overlay at work.
func TestUpdateFlipsAnswerOverHTTP(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})

	var q struct {
		Reachable bool `json:"reachable"`
	}
	u := queryURL(hts.URL, "v1", "v4", "l1")
	getJSON(t, u, &q)
	if q.Reachable {
		t.Fatal("(v1, v4, l1+) must be false on the original Fig. 2")
	}

	var up UpdateResult
	if code := postJSON(t, hts.URL+"/update", `{"s":"v1","l":"l1","t":"v4"}`, &up); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if up.Accepted != 1 || up.Journal != 1 {
		t.Fatalf("update result %+v", up)
	}

	getJSON(t, u, &q)
	if !q.Reachable {
		t.Fatal("the answer did not flip with the insert")
	}
}

// TestStatsMutableShape pins the /stats "mutable" contract: the exact key
// set, and overlay counters that move when a read misses the base index and
// searches the overlay — and only then.
func TestStatsMutableShape(t *testing.T) {
	g := graph.Fig2()
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{Mutable: true, RebuildThreshold: -1})
	if code := postJSON(t, hts.URL+"/update", `{"s":"v1","l":"l1","t":"v4"}`, nil); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	mutable := func() map[string]any {
		t.Helper()
		var m map[string]any
		getJSON(t, hts.URL+"/stats", &m)
		sec, ok := m["mutable"].(map[string]any)
		if !ok {
			t.Fatalf("/stats has no mutable section: %v", m)
		}
		return sec
	}

	// A read the base index answers is not an overlay search.
	var q queryResponse
	getJSON(t, queryURL(hts.URL, "v1", "v2", "l1"), &q)
	if ok, _ := ix.Query(0, 1, labelseq.Seq{0}); !ok || !q.Reachable {
		t.Fatalf("(v1, v2, l1+) = %v on the server, %v on the base index; want both true", q.Reachable, ok)
	}
	sec := mutable()
	var keys []string
	for k := range sec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"epoch", "journal", "overlay_searches", "overlay_visited", "writes"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("mutable keys drifted:\n got %v\nwant %v", keys, want)
	}
	if sec["overlay_searches"] != float64(0) || sec["overlay_visited"] != float64(0) {
		t.Fatalf("a base-index hit counted as an overlay search: %v", sec)
	}

	// (v1, v4, l1+) is true only through the journal edge.
	getJSON(t, queryURL(hts.URL, "v1", "v4", "l1"), &q)
	if !q.Reachable {
		t.Fatal("(v1, v4, l1+) must be true once the edge is in the journal")
	}
	sec = mutable()
	if sec["overlay_searches"] != float64(1) || sec["overlay_visited"].(float64) < 2 {
		t.Fatalf("one overlay read left overlay_searches = %v, overlay_visited = %v; want 1 and at least the two seeds", sec["overlay_searches"], sec["overlay_visited"])
	}
}

// TestSeqHeaderTracksJournalAppend pins X-Rlc-Seq to the journal itself.
// UpdateBatch publishes the batch to the overlay first and does its
// bookkeeping after; a query landing between the two already stamps the new
// sequence, so its answer must already see the edge. The test freezes that
// window by appending the enabling edge straight to the generation's
// overlay — exactly the state a reader sees mid-UpdateBatch — and requires
// the very next /query to be stamped 1 and to answer TRUE.
func TestSeqHeaderTracksJournalAppend(t *testing.T) {
	g := graph.Fig2()
	s, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})

	var q struct {
		Reachable bool `json:"reachable"`
	}
	u := queryURL(hts.URL, "v1", "v4", "l1")
	getJSON(t, u, &q)
	if q.Reachable {
		t.Fatalf("pre-append query: %+v, want false", q)
	}

	st := s.store.current()
	v1, _ := g.VertexByName("v1")
	v4, _ := g.VertexByName("v4")
	l1, _ := g.LabelByName("l1")
	if err := st.delta.AddEdges([]graph.Edge{{Src: v1, Label: l1, Dst: v4}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if seq := resp.Header.Get(HeaderSeq); seq != "1" {
		t.Fatalf("%s = %q after one journal append, want 1", HeaderSeq, seq)
	}
	if !q.Reachable {
		t.Fatalf("query stamped %s=1 answered FALSE, as of seq 0", HeaderSeq)
	}
}

// TestUpdateValidation pins the typed error codes of the write path.
func TestUpdateValidation(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})

	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"vertex out of range", `{"s":99,"l":"l1","t":0}`, http.StatusBadRequest, "vertex_range"},
		{"unknown vertex name", `{"s":"nope","l":"l1","t":"v1"}`, http.StatusBadRequest, ""},
		{"label out of range", `{"s":"v1","l":9,"t":"v2"}`, http.StatusBadRequest, "unknown_label"},
		{"unknown label name", `{"s":"v1","l":"nope","t":"v2"}`, http.StatusBadRequest, "unknown_label"},
		{"delete rejected", `{"s":"v1","l":"l1","t":"v2","op":"delete"}`, http.StatusBadRequest, "deletions_unsupported"},
		{"unknown op", `{"s":"v1","l":"l1","t":"v2","op":"upsert"}`, http.StatusBadRequest, ""},
		{"empty update", `{}`, http.StatusBadRequest, ""},
		{"batch with bad edge", `{"edges":[{"s":"v1","l":"l1","t":"v2"},{"s":0,"l":"l1","t":77}]}`, http.StatusBadRequest, "vertex_range"},
	}
	for _, c := range cases {
		var e errorResponse
		if code := postJSON(t, hts.URL+"/update", c.body, &e); code != c.code {
			t.Errorf("%s: status %d, want %d (%+v)", c.name, code, c.code, e)
		}
		if e.Code != c.want {
			t.Errorf("%s: code %q, want %q (%s)", c.name, e.Code, c.want, e.Error)
		}
	}

	// Batch atomicity: the invalid batch above must not have applied its
	// valid first edge.
	var st statsResponse
	getJSON(t, hts.URL+"/stats", &st)
	if st.Mutable == nil || st.Mutable.Journal != 0 {
		t.Fatalf("failed batches leaked into the journal: %+v", st.Mutable)
	}
}

// TestUpdateLabelResolvesAsQuery: a label token names the same label in
// /update as in /query. On a graph whose label "1" is id 0 and "0" is id 1,
// the update {"l":"1"} must insert an edge labelled "1", not label id 1.
func TestUpdateLabelResolvesAsQuery(t *testing.T) {
	g, err := graph.Read(strings.NewReader("a b 1\nb c 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if one, _ := g.LabelByName("1"); one != 0 {
		t.Fatalf(`label "1" is id %d, want 0`, one)
	}
	_, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})
	if code := postJSON(t, hts.URL+"/update", `{"s":"a","l":"1","t":"c"}`, nil); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	for _, c := range []struct {
		l    string
		want bool
	}{{"1", true}, {"0", false}} {
		var q queryResponse
		getJSON(t, queryURL(hts.URL, "a", "c", c.l), &q)
		if q.Reachable != c.want {
			t.Errorf("(a, c, %s+) = %v after inserting a -1-> c, want %v", c.l, q.Reachable, c.want)
		}
	}
}

// TestImmutableServerRejectsWrites: the write path answers 501 with the
// "immutable" code unless Options.Mutable is set, and reloads are refused
// on mutable servers.
func TestImmutableServerRejectsWrites(t *testing.T) {
	g := graph.Fig2()
	srv, hts := newTestServer(t, buildIndex(t, g), Options{})
	var e errorResponse
	if code := postJSON(t, hts.URL+"/update", `{"s":"v1","l":"l1","t":"v4"}`, &e); code != http.StatusNotImplemented || e.Code != "immutable" {
		t.Fatalf("update on immutable server: %d %+v", code, e)
	}
	if code := postJSON(t, hts.URL+"/rebuild", `{}`, &e); code != http.StatusNotImplemented || e.Code != "immutable" {
		t.Fatalf("rebuild on immutable server: %d %+v", code, e)
	}
	if _, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Dst: 1, Label: 0}}); err != errNotMutable {
		t.Fatalf("UpdateBatch error = %v", err)
	}

	mut, mhts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})
	if code := postJSON(t, mhts.URL+"/reload", `{}`, &e); code != http.StatusNotImplemented {
		t.Fatalf("reload on mutable server: %d %+v", code, e)
	}
	if _, err := mut.Reload(); err == nil {
		t.Fatal("mutable Reload must fail")
	}
}

// TestRebuildEndpoint folds over HTTP: updates land, POST /rebuild folds
// them, the epoch advances, the journal empties, the generation swaps, and
// every answer survives the swap unchanged.
func TestRebuildEndpoint(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})

	if code := postJSON(t, hts.URL+"/update",
		`{"edges":[{"s":"v1","l":"l1","t":"v4"},{"s":"v6","l":"l2","t":"v1"}]}`, nil); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}

	// Capture every (s, t, l) answer pre-fold.
	type ans struct{ s, t, l string }
	var pre []struct {
		q   ans
		got bool
	}
	for s := 1; s <= 6; s++ {
		for tt := 1; tt <= 6; tt++ {
			for _, l := range []string{"l1", "l2", "l1 l2"} {
				var qr struct {
					Reachable bool `json:"reachable"`
				}
				q := ans{s: "v" + string(rune('0'+s)), t: "v" + string(rune('0'+tt)), l: l}
				getJSON(t, queryURL(hts.URL, q.s, q.t, q.l), &qr)
				pre = append(pre, struct {
					q   ans
					got bool
				}{q, qr.Reachable})
			}
		}
	}

	var rr rebuildResponse
	if code := postJSON(t, hts.URL+"/rebuild", `{}`, &rr); code != http.StatusOK {
		t.Fatalf("rebuild status %d", code)
	}
	if rr.Epoch != 1 || rr.Folded != 2 || rr.Journal != 0 || rr.Generation != 2 {
		t.Fatalf("rebuild response %+v", rr)
	}

	var st statsResponse
	getJSON(t, hts.URL+"/stats", &st)
	if st.Generation != 2 || st.Mutable == nil || st.Mutable.Epoch != 1 || st.Mutable.Journal != 0 {
		t.Fatalf("post-fold stats: gen %d mutable %+v", st.Generation, st.Mutable)
	}
	var hz healthzResponse
	getJSON(t, hts.URL+"/healthz", &hz)
	if hz.Epoch == nil || *hz.Epoch != 1 || hz.Journal == nil || *hz.Journal != 0 {
		t.Fatalf("post-fold healthz: %+v", hz)
	}

	// Answers are identical across the swap.
	for _, p := range pre {
		var qr struct {
			Reachable bool `json:"reachable"`
		}
		getJSON(t, queryURL(hts.URL, p.q.s, p.q.t, p.q.l), &qr)
		if qr.Reachable != p.got {
			t.Fatalf("answer flipped across fold: (%s,%s,%s) %v -> %v", p.q.s, p.q.t, p.q.l, p.got, qr.Reachable)
		}
	}

	// A second rebuild with an empty journal is a no-op.
	if code := postJSON(t, hts.URL+"/rebuild", `{}`, &rr); code != http.StatusOK || rr.Folded != 0 || rr.Epoch != 1 {
		t.Fatalf("no-op rebuild: %d %+v", code, rr)
	}
}

// TestFoldPhaseTimings pins how a fold reports where its time went: the
// POST /rebuild reply, the "mutable" section of /stats and RebuildResult all
// carry union_micros, build_micros, bundle_micros and swap_micros beside the
// total they already had (in /stats, like last_rebuild_micros, only once a
// fold has run); the phases sum to no more than that total, and every phase
// is positive, bundle_micros included: a fold renders and verifies its
// bundle whether or not it also writes it to RebuildPath.
func TestFoldPhaseTimings(t *testing.T) {
	phases := []string{"union_micros", "build_micros", "bundle_micros", "swap_micros"}
	// check reads the phases out of a decoded JSON object and holds them to
	// total, which the object carries under totalKey. /stats rounds its
	// total down to whole microseconds; slack covers that.
	check := func(t *testing.T, where string, obj map[string]any, totalKey string, slack float64) {
		t.Helper()
		total, ok := obj[totalKey].(float64)
		if !ok {
			t.Fatalf("%s: no numeric %q in %v", where, totalKey, obj)
		}
		sum := 0.0
		for _, name := range phases {
			v, ok := obj[name].(float64)
			if !ok {
				t.Fatalf("%s: no numeric %q in %v", where, name, obj)
			}
			if v <= 0 {
				t.Errorf("%s: %s = %v", where, name, v)
			}
			sum += v
		}
		if sum > total+slack {
			t.Errorf("%s: phases sum to %v µs, %s is %v", where, sum, totalKey, total)
		}
	}

	for _, bundle := range []bool{false, true} {
		opts := Options{Mutable: true, RebuildThreshold: -1}
		if bundle {
			opts.RebuildPath = filepath.Join(t.TempDir(), "fold.rlcs")
		}
		srv, hts := newTestServer(t, buildIndex(t, graph.Fig2()), opts)
		t.Cleanup(func() { srv.Close() })

		var st struct {
			Mutable map[string]any `json:"mutable"`
		}
		getJSON(t, hts.URL+"/stats", &st)
		for _, name := range phases {
			if v, ok := st.Mutable[name]; ok {
				t.Fatalf("before the first fold /stats mutable has %s = %v", name, v)
			}
		}

		if code := postJSON(t, hts.URL+"/update", `{"s":"v1","l":"l1","t":"v4"}`, nil); code != http.StatusOK {
			t.Fatalf("update status %d", code)
		}
		var reply map[string]any
		if code := postJSON(t, hts.URL+"/rebuild", `{}`, &reply); code != http.StatusOK {
			t.Fatalf("rebuild status %d: %v", code, reply)
		}
		check(t, "/rebuild", reply, "micros", 0)
		st.Mutable = nil
		getJSON(t, hts.URL+"/stats", &st)
		check(t, "/stats mutable", st.Mutable, "last_rebuild_micros", 1)

		if _, err := srv.UpdateBatch([]graph.Edge{{Src: 5, Label: 1, Dst: 0}}); err != nil {
			t.Fatal(err)
		}
		res, err := srv.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		if sum := res.UnionMicros + res.BuildMicros + res.BundleMicros + res.SwapMicros; sum > micros(res.Duration) || res.BuildMicros <= 0 {
			t.Errorf("RebuildResult: phases %+v sum to %v µs of %v", res.FoldPhases, sum, res.Duration)
		}
	}
}

// TestFoldNeverBlocksQueriesOrUpdates holds swapMu — the lock every
// rebuildOnce takes first — so the fold an update triggers is wedged before
// it starts. With the journal ten times past the threshold, every read path
// and a further update must still complete: a query costs a delta search,
// never a rebuild, and a writer never waits for one. Released, the
// background fold drains the journal in one epoch and answers stay exact.
func TestFoldNeverBlocksQueriesOrUpdates(t *testing.T) {
	const n, labels, threshold = 50, 2, 4
	r := rand.New(rand.NewSource(700))
	g, err := genER(n, 200, labels, 700)
	if err != nil {
		t.Fatal(err)
	}
	randomEdges := func(k int) []graph.Edge {
		es := make([]graph.Edge, k)
		for i := range es {
			es[i] = graph.Edge{Src: graph.Vertex(r.Intn(n)), Dst: graph.Vertex(r.Intn(n)), Label: graph.Label(r.Intn(labels))}
		}
		return es
	}
	// One fold is expected; the slack keeps a stray second one from
	// blocking OnRebuild, which runs on the folding goroutine.
	folds := make(chan RebuildResult, 8)
	srv, hts := newTestServer(t, buildIndex(t, g), Options{
		Mutable:          true,
		RebuildThreshold: threshold,
		OnRebuild:        func(res RebuildResult) { folds <- res },
	})
	t.Cleanup(func() { srv.Close() })

	srv.swapMu.Lock()
	var unlock sync.Once
	release := func() { unlock.Do(srv.swapMu.Unlock) }
	t.Cleanup(release) // runs first: a failed test must not strand the fold

	// within runs f off the test goroutine and fails the test if it has not
	// returned by the deadline; f reports through its error, never through t.
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s waited on the wedged fold: queries and updates must never wait for a rebuild", what)
		}
	}
	ok200 := func(resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	inserted := randomEdges(10 * threshold)
	within("UpdateBatch past the threshold", func() error {
		res, err := srv.UpdateBatch(inserted)
		if err == nil && (!res.RebuildTriggered || res.Journal != len(inserted)) {
			err = fmt.Errorf("result %+v, want RebuildTriggered and journal %d", res, len(inserted))
		}
		return err
	})
	within("AnswerRLC", func() error {
		for i := 0; i < 200; i++ {
			if _, _, err := srv.AnswerRLC(context.Background(), graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)), labelseq.Seq{0, 1}); err != nil {
				return err
			}
		}
		return nil
	})
	within("GET /query", func() error { return ok200(http.Get(queryURL(hts.URL, "0", "1", "l0 l1"))) })
	within("POST /batch", func() error {
		return ok200(http.Post(hts.URL+"/batch", "application/json",
			strings.NewReader(`{"queries":[{"s":0,"t":1,"l":"l0 l1"},{"s":2,"t":3,"l":"l1"}]}`)))
	})
	more := randomEdges(threshold)
	within("a further UpdateBatch", func() error {
		res, err := srv.UpdateBatch(more)
		if err == nil && res.RebuildTriggered {
			err = fmt.Errorf("started a second fold while one is pending: %+v", res)
		}
		return err
	})

	release()
	select {
	case res := <-folds:
		if res.Err != nil {
			t.Fatalf("fold failed: %v", res.Err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the released fold never completed")
	}
	var st statsResponse
	getJSON(t, hts.URL+"/stats", &st)
	if st.Mutable == nil || st.Mutable.Epoch != 1 || st.Mutable.Journal >= threshold {
		t.Fatalf("after the fold: mutable %+v, want epoch 1 and a journal below %d", st.Mutable, threshold)
	}
	union := unionOf(g, append(inserted, more...))
	for _, l := range []labelseq.Seq{{0}, {1}, {0, 1}, {1, 0}} {
		for i := 0; i < 100; i++ {
			s, tt := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
			want, err := traversal.EvalRLC(union, s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := srv.AnswerRLC(context.Background(), s, tt, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("after the fold (%d,%d,%v+) = %v, union traversal %v", s, tt, l, got, want)
			}
		}
	}
}

// TestRebuildWritesBundle: with RebuildPath set, a fold writes a fresh v2
// bundle, swaps the server onto the mapped file, and the bundle re-opens
// and verifies standalone with the folded answer baked in.
func TestRebuildWritesBundle(t *testing.T) {
	g := graph.Fig2()
	path := filepath.Join(t.TempDir(), "folded.rlcs")
	var events []RebuildResult
	var mu sync.Mutex
	srv, hts := newTestServer(t, buildIndex(t, g), Options{
		Mutable:          true,
		RebuildThreshold: -1,
		RebuildPath:      path,
		OnRebuild: func(r RebuildResult) {
			mu.Lock()
			events = append(events, r)
			mu.Unlock()
		},
	})

	if _, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Dst: 3, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != path || res.Folded != 1 {
		t.Fatalf("rebuild result %+v", res)
	}
	mu.Lock()
	if len(events) != 1 || events[0].Err != nil || events[0].Epoch != 1 {
		t.Fatalf("OnRebuild events: %+v", events)
	}
	mu.Unlock()

	var st statsResponse
	getJSON(t, hts.URL+"/stats", &st)
	if !strings.Contains(st.Source, path) {
		t.Fatalf("source %q does not mention the folded bundle", st.Source)
	}

	snap, err := core.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Verify(); err != nil {
		t.Fatal(err)
	}
	ok, err := snap.Index().Query(0, 3, labelseq.Seq{0})
	if err != nil || !ok {
		t.Fatalf("folded bundle lost the inserted edge: %v, %v", ok, err)
	}
}

// TestMutableBatchAndExprExactness routes POST /batch and multi-segment
// GET /query through a mutable server with a non-empty journal and compares
// every answer with traversal over the materialized union.
func TestMutableBatchAndExprExactness(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g, err := genER(600, 1800, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, hts := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1})
	edges := make([]graph.Edge, 120)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:   graph.Vertex(r.Intn(600)),
			Dst:   graph.Vertex(r.Intn(600)),
			Label: graph.Label(r.Intn(3)),
		}
	}
	if _, err := srv.UpdateBatch(edges); err != nil {
		t.Fatal(err)
	}
	union := unionOf(g, edges)

	// Batch: 60 single-segment queries, compared against union traversal.
	var body strings.Builder
	body.WriteString(`{"queries":[`)
	type bq struct {
		s, t graph.Vertex
		l    labelseq.Seq
	}
	pool := make([]bq, 60)
	seqs := []labelseq.Seq{{0}, {1}, {0, 1}, {2, 0}}
	for i := range pool {
		pool[i] = bq{graph.Vertex(r.Intn(600)), graph.Vertex(r.Intn(600)), seqs[r.Intn(len(seqs))]}
		if i > 0 {
			body.WriteByte(',')
		}
		toks := make([]string, len(pool[i].l))
		for j, lb := range pool[i].l {
			toks[j] = "l" + string(rune('0'+lb))
		}
		body.WriteString(`{"s":` + itoa(int(pool[i].s)) + `,"t":` + itoa(int(pool[i].t)) + `,"l":"` + strings.Join(toks, " ") + `"}`)
	}
	body.WriteString(`]}`)
	var batch batchResponse
	if code := postJSON(t, hts.URL+"/batch", body.String(), &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	for i, res := range batch.Results {
		if res.Error != "" {
			t.Fatalf("batch query %d: %s", i, res.Error)
		}
		want, err := traversal.EvalRLC(union, pool[i].s, pool[i].t, pool[i].l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable != want {
			t.Fatalf("batch query %d: got %v, union traversal %v", i, res.Reachable, want)
		}
	}

	// Multi-segment expressions go through the overlay's NFA search.
	ev := traversal.NewEvaluator(union)
	for i := 0; i < 40; i++ {
		s := graph.Vertex(r.Intn(600))
		tt := graph.Vertex(r.Intn(600))
		var qr struct {
			Reachable bool   `json:"reachable"`
			Error     string `json:"error"`
		}
		getJSON(t, queryURL(hts.URL, itoa(int(s)), itoa(int(tt)), "l0+ l1+"), &qr)
		got, _, err := srv.AnswerRLC(context.Background(), s, tt, labelseq.Seq{0, 1, 2}) // beyond k=2
		if err != nil {
			t.Fatal(err)
		}
		nfa := compileExpr(t, "l0+ l1+", union)
		if want := ev.BFS(s, tt, nfa); qr.Reachable != want {
			t.Fatalf("expr query %d: got %v, union BFS %v", i, qr.Reachable, want)
		}
		want, err := traversal.EvalRLC(union, s, tt, labelseq.Seq{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("beyond-k query %d: got %v, union traversal %v", i, got, want)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func unionOf(g *graph.Graph, extra []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices(), g.NumLabels())
	for _, e := range g.Edges() {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	for _, e := range extra {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	return b.Build()
}

// soakConfig sizes one mutable-soak run (see runMutableSoak).
type soakConfig struct {
	nVertices, nLabels, baseEdges int
	inserts, threshold            int
	readers, perReader, poolSize  int
}

// TestMutableSoakOracle is the headline exactness proof: ≥100k mixed
// queries race concurrent single-edge inserts across ≥3 background
// rebuild/hot-swap epochs (each fold writing and re-opening a fresh v2
// bundle), and EVERY answer is checked against a linearizability oracle.
//
// The oracle: insertions are pre-planned, and for each pool query q the
// enabling prefix e(q) — the number of applied inserts after which q first
// becomes true — is precomputed by binary search with online traversal
// (answers are monotone because the graph only grows). A reader brackets
// each query between w0 (inserts COMPLETED before it started) and w1
// (inserts STARTED before it finished): the answer must be true if
// w0 >= e(q), must be false if w1 < e(q), and is otherwise free — exactly
// the linearizable envelope. Any stale cache entry, torn epoch swap, or
// lost journal edge lands outside it.
func TestMutableSoakOracle(t *testing.T) {
	runMutableSoak(t, soakConfig{
		nVertices: 200, nLabels: 2, baseEdges: 500,
		inserts: 900, threshold: 250, // 900 inserts / 250 => >= 3 background folds
		readers: 4, perReader: 25000, poolSize: 96, // 4 x 25k = 100k queries
	})
}

func runMutableSoak(t *testing.T, cfg soakConfig) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	var (
		nVertices = cfg.nVertices
		nLabels   = cfg.nLabels
		baseEdges = cfg.baseEdges
		inserts   = cfg.inserts
		threshold = cfg.threshold
		readers   = cfg.readers
		perReader = cfg.perReader
		poolSize  = cfg.poolSize
	)
	r := rand.New(rand.NewSource(77))
	g, err := genER(nVertices, baseEdges, nLabels, 13)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]graph.Edge, inserts)
	for i := range stream {
		stream[i] = graph.Edge{
			Src:   graph.Vertex(r.Intn(nVertices)),
			Dst:   graph.Vertex(r.Intn(nVertices)),
			Label: graph.Label(r.Intn(nLabels)),
		}
	}

	type poolQuery struct {
		s, t     graph.Vertex
		l        labelseq.Seq
		enabling int // first prefix length making it true; inserts+1 = never
	}
	pool := make([]poolQuery, poolSize)
	seqs := []labelseq.Seq{{0}, {1}, {0, 1}, {1, 0}}
	prefixes := map[int]*graph.Graph{}
	prefix := func(p int) *graph.Graph {
		if u, ok := prefixes[p]; ok {
			return u
		}
		u := unionOf(g, stream[:p])
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
	for i := range pool {
		q := &pool[i]
		q.s = graph.Vertex(r.Intn(nVertices))
		q.t = graph.Vertex(r.Intn(nVertices))
		q.l = seqs[r.Intn(len(seqs))]
		switch {
		case evalAt(q, 0):
			q.enabling = 0
		case !evalAt(q, inserts):
			q.enabling = inserts + 1
		default:
			// Monotone flip point: binary search the first true prefix.
			lo, hi := 1, inserts
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

	path := filepath.Join(t.TempDir(), "soak.rlcs")
	var folds atomic.Int64
	base, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatalf("build index: %v", err)
	}
	srv := New(base, Options{
		Mutable:          true,
		RebuildThreshold: threshold,
		RebuildPath:      path,
		OnRebuild: func(res RebuildResult) {
			if res.Err != nil {
				t.Errorf("fold failed: %v", res.Err)
			}
			folds.Add(1)
		},
	})
	defer srv.Close()

	var (
		started    atomic.Int64 // inserts whose UpdateBatch call has begun
		completed  atomic.Int64 // inserts whose UpdateBatch call has returned
		reads      atomic.Int64
		wrong      atomic.Int64
		writerDone atomic.Bool
	)
	// Two-way pacing interleaves the full query volume with the full
	// insert stream (and the folds it triggers): the writer waits for
	// reader progress, and readers may run only a bounded distance ahead
	// of the writer — otherwise 100k mostly-cached queries finish before
	// the epochs they are supposed to span.
	pace := int64(readers*perReader) / int64(inserts)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < perReader; i++ {
				for reads.Load() > completed.Load()*pace+2000 && !writerDone.Load() {
					time.Sleep(20 * time.Microsecond)
				}
				q := &pool[rr.Intn(poolSize)]
				w0 := completed.Load()
				got, _, err := srv.AnswerRLC(ctx, q.s, q.t, q.l)
				w1 := started.Load()
				if err != nil {
					t.Errorf("soak query: %v", err)
					wrong.Add(1)
					return
				}
				if got && int(w1) < q.enabling {
					t.Errorf("answered true before any enabling insert: (%d,%d,%v+) e=%d w1=%d", q.s, q.t, q.l, q.enabling, w1)
					wrong.Add(1)
					return
				}
				if !got && int(w0) >= q.enabling {
					t.Errorf("answered false after its enabling insert completed: (%d,%d,%v+) e=%d w0=%d", q.s, q.t, q.l, q.enabling, w0)
					wrong.Add(1)
					return
				}
				reads.Add(1)
			}
		}(int64(9000 + w))
	}

	for i, e := range stream {
		for reads.Load() < int64(i)*pace && wrong.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		// A real-time cadence (~1ms per insert) stretches the stream far
		// past a fold's duration, so threshold crossings — and the hot
		// swaps they cause — land in the middle of query traffic instead
		// of after it.
		time.Sleep(time.Millisecond)
		started.Add(1)
		if _, err := srv.UpdateBatch([]graph.Edge{e}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		completed.Add(1)
	}
	writerDone.Store(true)
	wg.Wait()
	if wrong.Load() > 0 {
		t.Fatalf("%d oracle violations", wrong.Load())
	}
	if got := reads.Load(); got != int64(readers*perReader) {
		t.Fatalf("completed %d queries, want %d", got, readers*perReader)
	}

	// Drain any in-flight background fold, then check the epoch count and
	// final exactness against the fully-inserted ground truth.
	deadline := time.Now().Add(60 * time.Second)
	for srv.rebuilding.Load() {
		if time.Now().After(deadline) {
			journal := srv.store.current().delta.JournalLen()
			t.Fatalf("a fold is still running 60 s after the last insert (epoch %d, journal %d)", srv.store.current().epoch, journal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if epoch := srv.store.current().epoch; epoch < 3 {
		t.Fatalf("soak spanned %d rebuild epochs, want >= 3", epoch)
	}
	if writes := srv.store.writes.Load(); writes != uint64(inserts) {
		t.Fatalf("writes counter = %d, want %d", writes, inserts)
	}
	final := prefix(inserts)
	for i := range pool {
		q := &pool[i]
		want, err := traversal.EvalRLC(final, q.s, q.t, q.l)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := srv.AnswerRLC(ctx, q.s, q.t, q.l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("final answer (%d,%d,%v+) = %v, ground truth %v", q.s, q.t, q.l, got, want)
		}
	}

	// The last fold's bundle on disk must verify.
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open folded bundle: %v", err)
	}
	defer snap.Close()
	if err := snap.Verify(); err != nil {
		t.Fatalf("folded bundle fails Verify: %v", err)
	}
}
