package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

func buildIndex(t *testing.T, g *graph.Graph) *core.Index {
	t.Helper()
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatalf("build index: %v", err)
	}
	return ix
}

func newTestServer(t *testing.T, ix *core.Index, opts Options) (*Server, *httpdtest.Server) {
	t.Helper()
	s := New(ix, opts)
	hts := httpdtest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return s, hts
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func queryURL(base string, s, tk, l string) string {
	return base + "/query?s=" + url.QueryEscape(s) + "&t=" + url.QueryEscape(tk) + "&l=" + url.QueryEscape(l)
}

// TestQueryEndpointMatchesIndex is the acceptance gate for GET /query: over
// every (s, t) pair of the Fig. 2 graph and a spread of constraints, the
// HTTP answer must equal Index.Query, and "cached" reads false — on a second
// pass too, since nothing keeps the first one's answers.
func TestQueryEndpointMatchesIndex(t *testing.T) {
	g := graph.Fig2()
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{})

	constraints := []struct {
		text string
		seq  labelseq.Seq
	}{
		{"l1", labelseq.Seq{0}},
		{"l2", labelseq.Seq{1}},
		{"l3", labelseq.Seq{2}},
		{"l1 l2", labelseq.Seq{0, 1}},
		{"(l2 l1)+", labelseq.Seq{1, 0}},
	}
	for pass := 0; pass < 2; pass++ {
		for s := 0; s < g.NumVertices(); s++ {
			for dst := 0; dst < g.NumVertices(); dst++ {
				for _, c := range constraints {
					want, err := ix.Query(graph.Vertex(s), graph.Vertex(dst), c.seq)
					if err != nil {
						t.Fatalf("index query (%d,%d,%v): %v", s, dst, c.seq, err)
					}
					var resp queryResponse
					code := getJSON(t, queryURL(hts.URL, fmt.Sprint(s), fmt.Sprint(dst), c.text), &resp)
					if code != http.StatusOK {
						t.Fatalf("(%d,%d,%q): status %d", s, dst, c.text, code)
					}
					if resp.Reachable != want {
						t.Fatalf("(%d,%d,%q): HTTP says %v, index says %v", s, dst, c.text, resp.Reachable, want)
					}
					if resp.Cached {
						t.Fatalf("(%d,%d,%q) pass %d: cached=true from a server without a cache", s, dst, c.text, pass)
					}
				}
			}
		}
	}
}

// TestQueryByName resolves display-name vertices the way the examples do.
func TestQueryByName(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{})
	var resp queryResponse
	if code := getJSON(t, queryURL(hts.URL, "v3", "v6", "l1+"), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Reachable {
		t.Fatal("(v3, v6, l1+) should be reachable")
	}
}

// TestQueryMultiSegment routes non-L+ expressions through the hybrid
// evaluator and must agree with a directly constructed one.
func TestQueryMultiSegment(t *testing.T) {
	g := graph.Fig2()
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{})
	h := hybrid.New(ix)

	expr := "l1+ l2+"
	parsed, err := New(ix, Options{}).store.current().parseExpr(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	for s := 0; s < g.NumVertices(); s++ {
		for dst := 0; dst < g.NumVertices(); dst++ {
			want, err := h.Eval(graph.Vertex(s), graph.Vertex(dst), parsed)
			if err != nil {
				t.Fatalf("hybrid (%d,%d): %v", s, dst, err)
			}
			var resp queryResponse
			if code := getJSON(t, queryURL(hts.URL, fmt.Sprint(s), fmt.Sprint(dst), expr), &resp); code != http.StatusOK {
				t.Fatalf("(%d,%d,%q): status %d", s, dst, expr, code)
			}
			if resp.Reachable != want {
				t.Fatalf("(%d,%d,%q): HTTP says %v, hybrid says %v", s, dst, expr, resp.Reachable, want)
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{})
	cases := []struct {
		name string
		url  string
		code int
	}{
		{"missing params", hts.URL + "/query?s=0", http.StatusBadRequest},
		{"unknown vertex name", queryURL(hts.URL, "nope", "0", "l1"), http.StatusBadRequest},
		{"vertex out of range", queryURL(hts.URL, "0", "99", "l1"), http.StatusBadRequest},
		{"unknown label", queryURL(hts.URL, "0", "1", "zz"), http.StatusBadRequest},
		{"empty expression", queryURL(hts.URL, "0", "1", " "), http.StatusBadRequest},
		{"plus-less segment in multi-segment expr", queryURL(hts.URL, "0", "1", "l1+ l2"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		var e errorResponse
		if code := getJSON(t, c.url, &e); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestQueryNonMRFallsBack: a non-minimum-repeat constraint like (l1 l1)+ is
// outside the index's class — Index.Query rejects it — but the serving layer
// answers it anyway through the hybrid/traversal fallback, matching the BFS
// baseline.
func TestQueryNonMRFallsBack(t *testing.T) {
	g := graph.Fig2()
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{})
	if _, err := ix.Query(0, 1, labelseq.Seq{0, 0}); err == nil {
		t.Fatal("index should reject the non-MR constraint (l1 l1)")
	}
	for s := 0; s < g.NumVertices(); s++ {
		for dst := 0; dst < g.NumVertices(); dst++ {
			want, err := traversal.EvalRLC(g, graph.Vertex(s), graph.Vertex(dst), labelseq.Seq{0, 0})
			if err != nil {
				t.Fatalf("bfs (%d,%d): %v", s, dst, err)
			}
			var resp queryResponse
			if code := getJSON(t, queryURL(hts.URL, fmt.Sprint(s), fmt.Sprint(dst), "l1 l1"), &resp); code != http.StatusOK {
				t.Fatalf("(%d,%d): status %d", s, dst, code)
			}
			if resp.Reachable != want {
				t.Fatalf("(%d,%d,(l1 l1)+): HTTP says %v, BFS says %v", s, dst, resp.Reachable, want)
			}
		}
	}
}

func postBatch(t *testing.T, base string, body string) (int, batchResponse, string) {
	t.Helper()
	resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /batch: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return resp.StatusCode, br, string(raw)
}

// TestBatchMatchesQueryBatch is the acceptance gate for POST /batch: over a
// generated ER graph and workload, the endpoint's answers must be identical,
// position for position, to Index.QueryBatch — and again on a second pass,
// which reports nothing cached either.
func TestBatchMatchesQueryBatch(t *testing.T) {
	g, err := gen.ER(400, 1600, 4, 11)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	w, err := workload.Generate(g, workload.Options{NumTrue: 60, NumFalse: 60, ConcatLen: 2, Seed: 5})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{})

	qs := w.All()
	batch := make([]core.BatchQuery, len(qs))
	var body bytes.Buffer
	body.WriteString(`{"queries":[`)
	for i, q := range qs {
		batch[i] = core.BatchQuery{S: q.S, T: q.T, L: q.L}
		if i > 0 {
			body.WriteByte(',')
		}
		toks := make([]string, len(q.L))
		for j, l := range q.L {
			toks[j] = fmt.Sprintf("l%d", l)
		}
		fmt.Fprintf(&body, `{"s":%d,"t":%d,"l":"%s"}`, q.S, q.T, strings.Join(toks, " "))
	}
	body.WriteString(`]}`)
	want := ix.QueryBatch(batch, 2)

	for pass := 0; pass < 2; pass++ {
		code, br, raw := postBatch(t, hts.URL, body.String())
		if code != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, code, raw)
		}
		if len(br.Results) != len(want) || br.Count != len(want) {
			t.Fatalf("pass %d: got %d results for %d queries", pass, len(br.Results), len(want))
		}
		for i, res := range br.Results {
			if res.Error != "" || want[i].Err != nil {
				t.Fatalf("pass %d: query %d: unexpected error state (%q, %v)", pass, i, res.Error, want[i].Err)
			}
			if res.Reachable != want[i].Reachable {
				t.Fatalf("pass %d: query %d: HTTP %v, QueryBatch %v", pass, i, res.Reachable, want[i].Reachable)
			}
		}
		if br.Cached != 0 {
			t.Fatalf("pass %d: cached = %d, want 0", pass, br.Cached)
		}
	}
}

// goldenBatchBody is the request TestBatchGoldenResponse pins the reply of;
// the decoder's tests start from it too.
const goldenBatchBody = `{"queries":[
		{"s":0,"t":4,"l":"l1 l2"},
		{"s":"v3","t":"v6","l":"l1"},
		{"s":1,"t":0,"l":"l2"},
		{"s":0,"t":3,"l":"l1 l1"},
		{"s":0,"t":99,"l":"l1"},
		{"s":0,"t":5,"l":"l1+ l2+"}
	]}`

// TestBatchGoldenResponse pins the exact response body of POST /batch on the
// Fig. 2 graph — field names, error strings, ordering, and the constant
// "cached" — with only the micros timing normalized to 0.
func TestBatchGoldenResponse(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{})

	const golden = `{"cached":0,"count":6,"micros":0,"results":[` +
		`{"reachable":true},` +
		`{"reachable":true},` +
		`{"reachable":false},` +
		`{"code":"not_minimum_repeat","error":"rlc: query constraint is not a minimum repeat (L != MR(L)); the even-path fragment is out of scope: (l0,l0)","reachable":false},` +
		`{"code":"vertex_range","error":"t: rlc: vertex id out of range: vertex 99 out of range [0, 6)","reachable":false},` +
		`{"error":"l: batch queries need a single L+ segment; use GET /query for multi-segment expressions","reachable":false}]}`
	// The second pass reads the same.
	for pass := 0; pass < 2; pass++ {
		code, _, raw := postBatch(t, hts.URL, goldenBatchBody)
		if code != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, code, raw)
		}
		if got := normalizeMicros(t, raw); got != golden {
			t.Fatalf("pass %d: response drifted from golden.\ngot:  %s\nwant: %s", pass, got, golden)
		}
	}
}

// normalizeMicros zeroes the timing field and re-marshals with sorted keys.
func normalizeMicros(t *testing.T, raw string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(raw), &m); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	if _, ok := m["micros"]; !ok {
		t.Fatalf("response %q lacks micros", raw)
	}
	m["micros"] = 0
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return string(out)
}

func TestBatchValidation(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{})
	queries := func(n int) string {
		return `{"queries":[` + strings.Repeat(`{"s":0,"t":1,"l":"l1"},`, n-1) + `{"s":0,"t":2,"l":"l1"}]}`
	}
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"queries":`, http.StatusBadRequest},
		{"unknown field", `{"nope":1,"queries":[{"s":0,"t":1,"l":"l1"}]}`, http.StatusBadRequest},
		{"empty batch", `{"queries":[]}`, http.StatusBadRequest},
		{"over limit", queries(DefaultMaxBatch + 1), http.StatusRequestEntityTooLarge},
		{"at limit", queries(DefaultMaxBatch), http.StatusOK},
		{"trailing space", `{"queries":[{"s":0,"t":1,"l":"l1"}]}` + " \n\t\r", http.StatusOK},
		{"trailing garbage", `{"queries":[{"s":0,"t":1,"l":"l1"}]} x`, http.StatusBadRequest},
		{"second value", `{"queries":[{"s":0,"t":1,"l":"l1"}]}{"queries":[]}`, http.StatusBadRequest},
		{"object as s", `{"queries":[{"s":{"id":0},"t":1,"l":"l1"}]}`, http.StatusBadRequest},
		{"array as t", `{"queries":[{"s":0,"t":[1],"l":"l1"}]}`, http.StatusBadRequest},
		{"number as l", `{"queries":[{"s":0,"t":1,"l":7}]}`, http.StatusBadRequest},
		{"fractional workers", `{"workers":2.0,"queries":[{"s":0,"t":1,"l":"l1"}]}`, http.StatusBadRequest},
		{"null body", `null`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(hts.URL+"/batch", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
}

func TestHealthz(t *testing.T) {
	g := graph.Fig2()
	_, hts := newTestServer(t, buildIndex(t, g), Options{})
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Epoch      *int   `json:"epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Generation != 1 {
		t.Fatalf("healthz: %d %+v (%v)", resp.StatusCode, hz, err)
	}
	if hz.Epoch != nil {
		t.Fatalf("immutable server reported a write-path epoch: %+v", hz)
	}
}

func TestStatsEndpoint(t *testing.T) {
	g := graph.Fig2()
	ix := buildIndex(t, g)
	_, hts := newTestServer(t, ix, Options{})

	var qr queryResponse
	getJSON(t, queryURL(hts.URL, "0", "4", "l1 l2"), &qr)
	getJSON(t, queryURL(hts.URL, "0", "4", "l1 l2"), &qr)

	var st statsResponse
	if code := getJSON(t, hts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Index.Entries != ix.Stats().Entries || st.Index.K != 2 {
		t.Fatalf("index stats drifted: %+v", st.Index)
	}
	q := st.Endpoints["query"]
	if q.Count != 2 || q.Errors != 0 || q.MaxMicros <= 0 {
		t.Fatalf("query endpoint stats: %+v", q)
	}
	if st.BatchQueries != 0 {
		t.Fatalf("batch_queries = %d before any batch", st.BatchQueries)
	}
	// Two accepted batches of 6 and 1 queries and a refused one: the
	// counter takes the queries of the accepted ones.
	postBatch(t, hts.URL, goldenBatchBody)
	postBatch(t, hts.URL, `{"queries":[{"s":0,"t":4,"l":"l1"}]}`)
	postBatch(t, hts.URL, `{"queries":[]}`)
	var raw map[string]json.RawMessage
	getJSON(t, hts.URL+"/stats", &raw)
	if string(raw["batch_queries"]) != "7" {
		t.Fatalf("batch_queries = %s, want 7", raw["batch_queries"])
	}
	if _, ok := raw["cache"]; ok {
		t.Fatalf("/stats reports a cache section: %s", raw["cache"])
	}
	getJSON(t, hts.URL+"/stats", &st)
	if b := st.Endpoints["batch"]; b.Count != 3 || b.Errors != 1 {
		t.Fatalf("batch endpoint stats: %+v", b)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}

// TestGracefulShutdownUnderLoad drives concurrent query traffic at a real
// listener, shuts the server down mid-stream, and requires (a) Shutdown
// returns without error inside its budget, (b) every request that completed
// before shutdown began succeeded, and (c) Serve reports the clean
// http.ErrServerClosed.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	g, err := gen.ER(300, 1200, 4, 3)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	s := New(buildIndex(t, g), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	const clients = 8
	var (
		completed    atomic.Int64
		shuttingDown atomic.Bool
		wg           sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				u := queryURL(base, fmt.Sprint((c*37+i)%300), fmt.Sprint((c*91+i*13)%300), "l0 l1")
				resp, err := client.Get(u)
				if err != nil {
					if !shuttingDown.Load() {
						t.Errorf("client %d failed before shutdown: %v", c, err)
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK {
					t.Errorf("client %d: status %d", c, code)
					return
				}
				completed.Add(1)
			}
		}(c)
	}

	// Let real load build up before pulling the plug.
	deadline := time.Now().Add(10 * time.Second)
	for completed.Load() < 200 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed before shutdown")
	}

	shuttingDown.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	t.Logf("served %d requests before graceful shutdown", completed.Load())
}
