package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// The request and reply structs POST /batch went through encoding/json with
// until batchScanner and appendReply replaced them. They stay here as the
// reference the hand-written code is held to.
type batchRequest struct {
	Workers int               `json:"workers,omitempty"`
	Queries []batchQueryInput `json:"queries"`
}

type batchQueryInput struct {
	S vertexToken `json:"s"`
	T vertexToken `json:"t"`
	L string      `json:"l"`
}

type batchResponse struct {
	Results []batchQueryResult `json:"results"`
	Count   int                `json:"count"`
	Cached  int                `json:"cached"`
	Micros  float64            `json:"micros"`
}

// referenceDecode is the decode step as it was: one value off the front of
// the body, unknown fields refused.
func referenceDecode(body []byte) (batchRequest, error) {
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// scanBatch runs the scanner over body, handed over whole or one byte per
// Read so that every refill point is crossed.
func scanBatch(body []byte, byteAtATime bool, limit int) (int, []batchSlot, error) {
	d := batchScanner{b: body}
	if byteAtATime {
		d = batchScanner{src: iotest.OneByteReader(bytes.NewReader(body))}
	}
	return d.decode(nil, limit)
}

// FuzzDecodeBatch holds batchScanner to encoding/json: the same bodies
// accepted and refused, and for the accepted ones the same workers and the
// same (s, t, l) per slot. The two refusals the scanner adds — bytes after
// the object, a composite s or t — are the only exits.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		goldenBatchBody,
		`{}`,
		`{"queries":[{"s":1,"t":2,"l":"a"}]}`,
		`{"QUERIES":[{"S":1,"T":2,"L":"a"}]}`,
		`{"querieſ":[{"ſ":1,"t":2,"l":"a"}],"worKers":3}`,
		`{"queries":[{"s":1,"s":2,"t":3,"l":"a","l":"b"}],"queries":[{"t":9}]}`,
		`{"queries":[{"s":1,"t":2,"l":"a"},{"s":3,"t":4,"l":"b"}],"queries":[null,{"l":null}],"queries":[{},{},{}]}`,
		`{"queries":null}`,
		`{"queries":[{"s":1}],"queries":null,"queries":[{"t":2}]}`,
		`{"queries":[{"s":1}],"queries":[],"queries":[{"t":2}]}`,
		`{"queries":[{"s":1e2,"t":-0,"l":"a"},{"s":01,"t":2,"l":"a"}]}`,
		`{"queries":[{"s":1.5E+3,"t":-12.0e-1,"l":""},{"s":true,"t":null,"l":"x"}]}`,
		`{"workers":2.0,"queries":[{"s":1,"t":2,"l":"a"}]}`,
		`{"workers":"3","queries":[{"s":1,"t":2,"l":"a"}]}`,
		`{"workers":-9223372036854775808,"queries":[]}`,
		`{"workers":9223372036854775808}`,
		`{"workers":null,"workers":4}`,
		`{"queries":[{"s":"A\n\"","t":"é","l":"l\\1 😀 \ud83d"}]}`,
		"{\"queries\":[{\"s\":\"\xff\xfe\",\"t\":\"a\xc3\",\"l\":\"\xe2\x28\xa1\"}]}",
		`{"queries":[{"s":1}]}`,
		`{"queries":[{"s":{"a":[1,{"b":null}]},"t":[[[]]],"l":"a"}]}`,
		`{"queries":[[{"s":1}]]}`,
		`{"nope":{"a":[1,2,{"b":[]}]},"queries":[]}`,
		`{"queries":[{"s":1,"t":2,"l":"a"}]} {"queries":[]}`,
		`{"queries":[{"s":1,"t":2,"l":"a"}]}x`,
		" \t\r\n{ \"queries\" : [ { \"s\" : 1 , \"t\" : 2 , \"l\" : \"a\" } , null ] } \n",
		`null`, `nullx`, `[]`, `"queries"`, `12`, `{"queries":[{"s":1,}]}`, `{"queries":[,]}`, `{,}`,
		"{\"queries\":[{\"l\":\"a\x01\"}]}", `{"queries":[{"l":"\x"}]}`, `{"queries":[{"s":-}]}`,
	} {
		f.Add([]byte(seed))
	}
	for _, c := range quickObjects {
		f.Add([]byte(`{"queries":[{` + c.obj + `]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		workers, slots, err := scanBatch(body, false, 1<<30)
		w1, s1, err1 := scanBatch(body, true, 1<<30)
		if err != err1 || workers != w1 || !sameSlots(slots, s1) {
			t.Fatalf("whole body: (%d, %d slots, %v); a byte at a time: (%d, %d slots, %v)",
				workers, len(slots), err, w1, len(s1), err1)
		}
		if err == errBatchTrailing || err == errBatchComposite {
			return
		}
		ref, refErr := referenceDecode(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("scanner: %v; encoding/json: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if workers != ref.Workers || len(slots) != len(ref.Queries) {
			t.Fatalf("scanner: workers %d, %d queries; encoding/json: workers %d, %d queries",
				workers, len(slots), ref.Workers, len(ref.Queries))
		}
		for i, q := range ref.Queries {
			if got := slots[i]; string(got.s) != string(q.S) || string(got.t) != string(q.T) || string(got.l) != q.L {
				t.Fatalf("slot %d: scanner (%q, %q, %q); encoding/json (%q, %q, %q)",
					i, got.s, got.t, got.l, q.S, q.T, q.L)
			}
		}
	})
}

// quickObjects are query objects, past their '{', at the edges of the one
// spelling batchScanner.quick takes, and whether it takes them. Whole
// bodies scan them with quick first and byte-at-a-time bodies without it,
// so FuzzDecodeBatch starts from them.
var quickObjects = []struct {
	obj   string
	quick bool
}{
	{`"s":12,"t":0,"l":"(l1 l2)+"}`, true},
	{`"s":0,"t":3,"l":""}`, true},
	{`"s":1,"t":2,"l":"a"},{"s":3`, true},
	{`"s":01,"t":2,"l":"a"}`, false},
	{`"s":-1,"t":2,"l":"a"}`, false},
	{`"s":1.0,"t":2,"l":"a"}`, false},
	{`"s":1e2,"t":2,"l":"a"}`, false},
	{`"s":1,"t":2,"l":"a\"b"}`, false},
	{`"s":1,"t":2,"l":"é"}`, false},
	{`"S":1,"t":2,"l":"a"}`, false},
	{`"s": 1,"t":2,"l":"a"}`, false},
	{`"s":1,"t":2,"l":"a"`, false},
}

// TestBatchQuickSpelling: quick takes exactly the objects quickObjects
// marks, consuming the whole object or nothing.
func TestBatchQuickSpelling(t *testing.T) {
	for _, c := range quickObjects {
		d := batchScanner{b: []byte(c.obj)}
		var q batchSlot
		got := d.quick(&q)
		end := strings.Index(c.obj, "}") + 1
		if got != c.quick || !got && d.i != 0 || got && d.i != end {
			t.Errorf("%s: taken %v, want %v; stopped at byte %d", c.obj, got, c.quick, d.i)
		}
	}
}

func sameSlots(a, b []batchSlot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].s, b[i].s) || !bytes.Equal(a[i].t, b[i].t) || !bytes.Equal(a[i].l, b[i].l) {
			return false
		}
	}
	return true
}

// TestDecodeBatchDeviations pins the two places the scanner is stricter than
// encoding/json was, which FuzzDecodeBatch steps around.
func TestDecodeBatchDeviations(t *testing.T) {
	for _, c := range []struct {
		body string
		want error
	}{
		{`{"queries":[{"s":1,"t":2,"l":"a"}]} {"queries":[]}`, errBatchTrailing},
		{`{"queries":[]}]`, errBatchTrailing},
		{`null x`, errBatchTrailing},
		{`{"queries":[{"s":{"id":1},"t":2,"l":"a"}]}`, errBatchComposite},
		{`{"queries":[{"s":1,"t":[2],"l":"a"}]}`, errBatchComposite},
	} {
		if _, err := referenceDecode([]byte(c.body)); err != nil {
			t.Errorf("%s: encoding/json refused it too: %v", c.body, err)
		}
		if _, _, err := scanBatch([]byte(c.body), false, 8); err != c.want {
			t.Errorf("%s: %v, want %v", c.body, err, c.want)
		}
	}
}

// TestDecodeBatchEveryPrefix cuts the golden body short at every byte: each
// cut is a 400, whether the body arrives whole or in pieces — never a panic,
// never an answer to the queries that did arrive.
func TestDecodeBatchEveryPrefix(t *testing.T) {
	s := New(buildIndex(t, graph.Fig2()), Options{})
	defer s.Close()
	h := s.Handler()
	for cut := 0; cut < len(goldenBatchBody); cut++ {
		for _, body := range []io.Reader{
			strings.NewReader(goldenBatchBody[:cut]),
			iotest.OneByteReader(strings.NewReader(goldenBatchBody[:cut])),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", body))
			if rec.Code != http.StatusBadRequest || strings.Contains(rec.Body.String(), "reachable") {
				t.Fatalf("prefix of %d bytes: status %d: %s", cut, rec.Code, rec.Body)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(goldenBatchBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("whole body: status %d: %s", rec.Code, rec.Body)
	}
}

var microsField = regexp.MustCompile(`"micros":[0-9.e+-]+`)

// TestBatchReplyMatchesEncodingJSON rebuilds the reply the way the endpoint
// used to — resolve each query, ask the index, fill the response struct,
// Encode it — and requires appendReply's bytes to equal it, micros apart,
// on a body whose slots cover both answers, a vertex named in another
// script, and error texts that encoding/json escapes.
func TestBatchReplyMatchesEncodingJSON(t *testing.T) {
	fig2 := graph.Fig2()
	b := graph.NewBuilder(fig2.NumVertices(), fig2.NumLabels())
	b.SetVertexNames([]string{"v1", "v2", "v3", "v4", "v5", "véξ6"})
	b.SetLabelNames(fig2.LabelNames())
	for _, e := range fig2.Edges() {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	g := b.Build()
	ix := buildIndex(t, g)
	s := New(ix, Options{})
	defer s.Close()

	body := `{"queries":[
		{"s":0,"t":4,"l":"l1 l2"},
		{"s":"v3","t":"véξ6","l":"l1"},
		{"s":"v3","t":"véξ6","l":"(l1)+"},
		{"s":1,"t":0,"l":"l2"},
		{"s":"<v1> & \"v2\"","t":0,"l":"l1"},
		{"s":0,"t":"ξ<&>","l":"l1"},
		{"s":0,"t":1,"l":"<l1> & l2"},
		{"s":0,"t":1,"l":"<l1> & l2"},
		{"s":0,"t":3,"l":"l1 l1"},
		{"s":0,"t":99,"l":"l1"},
		{"s":-1,"t":0,"l":"l1"},
		{"s":0,"t":5,"l":"l1+ l2+"},
		{"s":0,"t":5,"l":""},
		{"s":1e0,"t":5,"l":"l1"},
		{"t":5,"l":"l1"},
		null
	]}`
	ref, err := referenceDecode([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	st := s.store.current()
	want := batchResponse{Results: make([]batchQueryResult, len(ref.Queries)), Count: len(ref.Queries)}
	fail := func(err error) batchQueryResult {
		return batchQueryResult{Error: err.Error(), Code: errorCode(err)}
	}
	for i, in := range ref.Queries {
		src, err := st.vertex(string(in.S))
		if err != nil {
			want.Results[i] = fail(fmt.Errorf("s: %w", err))
			continue
		}
		dst, err := st.vertex(string(in.T))
		if err != nil {
			want.Results[i] = fail(fmt.Errorf("t: %w", err))
			continue
		}
		e, err := st.parseExpr(in.L)
		if err != nil {
			want.Results[i] = fail(fmt.Errorf("l: %w", err))
			continue
		}
		if len(e.Segments) != 1 || !e.Segments[0].Plus {
			want.Results[i] = fail(errBatchSegments)
			continue
		}
		reachable, err := ix.Query(src, dst, e.Segments[0].Labels)
		if err != nil {
			want.Results[i] = fail(err)
			continue
		}
		want.Results[i] = batchQueryResult{Reachable: reachable}
	}
	var wantBytes bytes.Buffer
	if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	var yes, no, failed int
	for _, r := range want.Results {
		switch {
		case r.Error != "":
			failed++
		case r.Reachable:
			yes++
		default:
			no++
		}
	}
	if yes < 2 || no < 1 || failed < 8 {
		t.Fatalf("the body no longer covers the reply's cases: %d true, %d false, %d errors", yes, no, failed)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	got := microsField.ReplaceAll(rec.Body.Bytes(), []byte(`"micros":0`))
	if !bytes.Equal(got, wantBytes.Bytes()) {
		t.Fatalf("reply is not what encoding/json writes.\ngot:  %s\nwant: %s", got, wantBytes.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a body of %d bytes", cl, rec.Body.Len())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// batchBodies encodes count bodies of size queries each, uniform over g's
// vertices and over the first constraints of its ordered label pairs — the
// shape of the benchmark's batch-cold requests.
func batchBodies(g *graph.Graph, count, size, constraints int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for a := 0; a < g.NumLabels(); a++ {
		for b := 0; b < g.NumLabels(); b++ {
			if a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	pairs = pairs[:min(constraints, len(pairs))]
	bodies := make([][]byte, count)
	for i := range bodies {
		body := []byte(`{"queries":[`)
		for q := 0; q < size; q++ {
			if q > 0 {
				body = append(body, ',')
			}
			p := pairs[r.Intn(len(pairs))]
			body = fmt.Appendf(body, `{"s":%d,"t":%d,"l":"(l%d l%d)+"}`,
				r.Intn(g.NumVertices()), r.Intn(g.NumVertices()), p[0], p[1])
		}
		bodies[i] = append(body, "]}"...)
	}
	return bodies
}

// discardWriter is a ResponseWriter that keeps the status and nothing else.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

func wnServer(tb testing.TB, vertices int, opts Options) (*Server, *graph.Graph) {
	tb.Helper()
	wn, err := datasets.ByName("WN")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := wn.Generate(vertices, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(ix, opts)
	tb.Cleanup(func() { s.Close() })
	return s, g
}

// TestBatchSteadyStateAllocs holds batch.go's scan, resolve and reply to no
// allocation per query: once a batchState has grown to a 512-query body and
// seen its constraints on this generation, answering a 512-query body over
// 56 constraints allocates no more than a 64-query body over 8, and no more
// than batchBudget in all (measured: 3, all of them per request). The
// request is built once and its body reader reset each run, so the count is
// serveBatch's own work and a single allocation per request shows.
func TestBatchSteadyStateAllocs(t *testing.T) {
	s, g := wnServer(t, 600, Options{})
	st := s.store.current()
	bs := batchStates.New().(*batchState)
	w := &discardWriter{h: http.Header{}}
	// One worker, asked for by the request, so the fan-out's goroutines do
	// not count.
	oneWorker := func(body []byte) []byte { return append([]byte(`{"workers":1,`), body[1:]...) }
	big := oneWorker(batchBodies(g, 1, 512, 56, 1)[0])
	small := oneWorker(batchBodies(g, 1, 64, 8, 2)[0])
	body := bytes.NewReader(big)
	r := httptest.NewRequest("POST", "/batch", body)
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			body.Reset(b)
			if !s.serveBatch(st, bs, w, r) || w.status != http.StatusOK {
				t.Fatalf("status %d", w.status)
			}
		})
	}
	allocs(big) // grows bs to its steady size and parses the 56 constraints
	const batchBudget = 3
	a, b := allocs(small), allocs(big)
	if b > a || b > batchBudget {
		t.Fatalf("64 queries over 8 constraints: %.0f allocs; 512 queries over 56: %.0f allocs, budget %d", a, b, batchBudget)
	}
}

// TestBatchOverLimitStopsEarly: the scanner refuses a batch at query
// DefaultMaxBatch+1 without reading, let alone decoding, the rest. Refusing
// 300,000 queries (6.9 MB, under the body cap) must cost no more than
// refusing DefaultMaxBatch+1.
func TestBatchOverLimitStopsEarly(t *testing.T) {
	s := New(buildIndex(t, graph.Fig2()), Options{})
	defer s.Close()
	h := s.Handler()
	refuse := func(queries int) uint64 {
		t.Helper()
		body := `{"queries":[` + strings.Repeat(`{"s":0,"t":1,"l":"l1"},`, queries-1) + `{"s":0,"t":1,"l":"l1"}]}`
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/batch", strings.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, r)
		runtime.ReadMemStats(&after)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(er.Error, "limit of 8192") {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	atLimit := refuse(DefaultMaxBatch + 1)
	if spent := refuse(300_000); spent > atLimit+1<<20 {
		t.Fatalf("refusing 300,000 queries allocated %d bytes, refusing %d allocated %d", spent, DefaultMaxBatch+1, atLimit)
	}
}

// TestBatchStateOversizeNotPooled: a state whose body or reply buffer a huge
// request grew past batchKeepBytes does not go back to the pool. (That the
// others do is BenchmarkHandleBatch's allocs/op to show: sync.Pool promises
// no test a Get that returns what was Put.)
func TestBatchStateOversizeNotPooled(t *testing.T) {
	for _, c := range []struct{ body, reply int }{
		{batchKeepBytes + 1, 0},
		{0, batchKeepBytes + 1},
	} {
		bs := &batchState{reply: make([]byte, 0, c.reply)}
		bs.scan.b = make([]byte, 0, c.body)
		bs.release()
		for range 4 {
			if batchStates.Get() == any(bs) {
				t.Errorf("state with a %d-byte body buffer and a %d-byte reply buffer went back to the pool", c.body, c.reply)
			}
		}
	}
}

// TestBatchWorkersAccepted: every spelling of "workers" a Go int decoded is
// taken, none of them moves an answer, and none of them raises the worker
// count past GOMAXPROCS.
func TestBatchWorkersAccepted(t *testing.T) {
	var answers []byte
	s, g := wnServer(t, 600, Options{})
	body := batchBodies(g, 1, 512, 8, 3)[0]
	with := func(workers string) []byte {
		return append([]byte(`{"workers":`+workers+`,`), body[1:]...)
	}
	for _, b := range [][]byte{body, with("1"), with("64"), with("-3"), with("null")} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		got := microsField.ReplaceAll(rec.Body.Bytes(), nil)
		if answers == nil {
			answers = got
		} else if !bytes.Equal(got, answers) {
			t.Fatalf("answers moved with the worker count")
		}
	}
	limit := runtime.GOMAXPROCS(0)
	for _, requested := range []int{0, -3, 1, 64, limit + 1} {
		got := core.EffectiveBatchWorkers(512, batchWorkers(requested))
		lowered := 0 < requested && requested <= limit
		if got > limit || lowered && got != core.EffectiveBatchWorkers(512, requested) {
			t.Errorf("request asking for %d: %d workers", requested, got)
		}
	}
}

// TestBatchPendingJournalReadsOverlay: with journal edges pending, a batch
// is answered query by query through the overlay, the journal edge
// included; after the fold empties the journal, the same batch goes to the
// index and answers the same. "cached" is 0 throughout.
func TestBatchPendingJournalReadsOverlay(t *testing.T) {
	srv, hts := newTestServer(t, buildIndex(t, graph.Fig2()), Options{Mutable: true, RebuildThreshold: -1})
	if _, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Label: 0, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	body := `{"queries":[{"s":0,"t":3,"l":"l1"},{"s":0,"t":4,"l":"l1 l2"},{"s":1,"t":0,"l":"l2"},{"s":0,"t":99,"l":"l1"}]}`
	for pass := 0; pass < 2; pass++ {
		_, pending, _ := postBatch(t, hts.URL, body)
		if pending.Cached != 0 || !pending.Results[0].Reachable || pending.Results[3].Code != "vertex_range" {
			t.Fatalf("pending journal, pass %d: %+v", pass, pending)
		}
	}
	if _, err := srv.Rebuild(); err != nil {
		t.Fatal(err)
	}
	_, folded, _ := postBatch(t, hts.URL, body)
	if folded.Cached != 0 || !folded.Results[0].Reachable {
		t.Fatalf("after the fold: %+v", folded)
	}
}

// TestBatchReplyIndependentOfJournal: /batch answers the index's query
// class, and a constraint outside it gets the same refusal whether or not
// journal edges are pending, so two replicas of one timeline give one
// request one reply. The golden body plus a constraint_too_long slot must
// read byte for byte the same before and after an unrelated insert.
func TestBatchReplyIndependentOfJournal(t *testing.T) {
	srv, hts := newTestServer(t, buildIndex(t, graph.Fig2()), Options{Mutable: true, RebuildThreshold: -1})
	end := strings.LastIndex(goldenBatchBody, "]}")
	body := goldenBatchBody[:end] + `,{"s":0,"t":4,"l":"l1 l2 l3"}]}`
	reply := func() string {
		t.Helper()
		code, _, raw := postBatch(t, hts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		return normalizeMicros(t, raw)
	}
	empty := reply()
	for _, want := range []string{`"code":"not_minimum_repeat"`, `"code":"constraint_too_long"`} {
		if !strings.Contains(empty, want) {
			t.Fatalf("empty journal: reply lacks %s: %s", want, empty)
		}
	}
	// v6 -l1-> v6 lies on no path any query of the body asks about.
	if _, err := srv.UpdateBatch([]graph.Edge{{Src: 5, Label: 0, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	if pending := reply(); pending != empty {
		t.Fatalf("the reply changed with a journal edge pending:\nempty:   %s\npending: %s", empty, pending)
	}
}

// relabelled is Fig. 2's vertices with each edge's label mapped through
// labels (old id → new id), over labels named names.
func relabelled(labels []graph.Label, names ...string) *graph.Graph {
	fig2 := graph.Fig2()
	b := graph.NewBuilder(fig2.NumVertices(), len(names))
	b.SetVertexNames(fig2.VertexNames())
	b.SetLabelNames(names)
	for _, e := range fig2.Edges() {
		b.AddEdge(e.Src, labels[e.Label], e.Dst)
	}
	return b.Build()
}

// TestBatchConstraintTablePerGeneration: the constraint table a pooled
// batchState keeps never answers for a generation it was not filled on.
// Two servers in one process serve Fig. 2 under label names that give the
// same text other labels (both are generation 1 of their store), one
// batchState serves them in turn, and then one server swaps onto a third
// graph where a text names no label at all. After every request each slot
// must be what that server's GET /query answers, error text included.
func TestBatchConstraintTablePerGeneration(t *testing.T) {
	a := New(buildIndex(t, graph.Fig2()), Options{})
	defer a.Close()
	b := New(buildIndex(t, relabelled([]graph.Label{2, 0, 1}, "l2", "l3", "l1")), Options{})
	defer b.Close()
	third := relabelled([]graph.Label{1, 0, 1}, "l2", "l1")

	texts := []string{"l1", "l2", "l3", "l1 l2", "l2 l1", "(l1 l3)+", "l3 l2", "l1+ l2+"}
	var body []byte
	for s := 0; s < 6; s++ {
		for tt := 0; tt < 6; tt++ {
			for _, l := range texts {
				body = fmt.Appendf(body, `,{"s":%d,"t":%d,"l":%q}`, s, tt, l)
			}
		}
	}
	body = append(append([]byte(`{"queries":[`), body[1:]...), "]}"...)

	bs := batchStates.New().(*batchState)
	check := func(name string, s *Server) []byte {
		rec := httptest.NewRecorder()
		ok := s.serveBatch(s.store.current(), bs, rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		var got batchResponse
		if !ok || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
		i := 0
		for src := 0; src < 6; src++ {
			for dst := 0; dst < 6; dst++ {
				for _, l := range texts {
					slot := got.Results[i]
					i++
					if l == "l1+ l2+" { // /query answers it; /batch refuses it
						if slot.Error != errBatchSegments.Error() {
							t.Fatalf("%s: (%d, %d, %s): %+v", name, src, dst, l, slot)
						}
						continue
					}
					q := httptest.NewRecorder()
					s.Handler().ServeHTTP(q, httptest.NewRequest("GET",
						fmt.Sprintf("/query?s=%d&t=%d&l=%s", src, dst, url.QueryEscape(l)), nil))
					var want batchQueryResult
					var err error
					if q.Code == http.StatusOK {
						var qr queryResponse
						err = json.Unmarshal(q.Body.Bytes(), &qr)
						want.Reachable = qr.Reachable
					} else {
						err = json.Unmarshal(q.Body.Bytes(), &want)
					}
					if err != nil || slot != want {
						t.Fatalf("%s: (%d, %d, %s): /batch %+v, /query %d %s", name, src, dst, l, slot, q.Code, q.Body)
					}
				}
			}
		}
		return microsField.ReplaceAll(rec.Body.Bytes(), nil)
	}
	check("a", a)
	check("b", b)
	check("a again", a)
	check("b again", b)
	snapThird, err := renderBundle(buildIndex(t, third))
	if err != nil {
		t.Fatal(err)
	}
	b.Store().SwapSnapshot(snapThird)
	check("b on the third graph", b)
	wantA := check("a after b's swap", a)
	wantB := check("b on the third graph again", b)

	// Then through the handlers, from several goroutines sharing the pool,
	// while b keeps swapping onto new generations of the same index: every
	// reply stays the one just checked.
	var swaps, posts sync.WaitGroup
	stop := make(chan struct{})
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Store().SwapSnapshot(snapThird)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		posts.Add(1)
		go func() {
			defer posts.Done()
			for i := 0; i < 20; i++ {
				s, want := a, wantA
				if (w+i)%2 == 1 {
					s, want = b, wantB
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
				if got := microsField.ReplaceAll(rec.Body.Bytes(), nil); !bytes.Equal(got, want) {
					t.Errorf("concurrent request %d on server %d: status %d", i, (w+i)%2, rec.Code)
					return
				}
			}
		}()
	}
	posts.Wait()
	close(stop)
	swaps.Wait()
}

// BenchmarkHandleBatch is the /batch handler alone on the benchmark's
// batch-cold shape: the WN profile at 5,000 vertices, 512-query bodies over
// the 56 ordered label pairs, 1,024 bodies cycled. One op is one request —
// building the *http.Request included; ns/query divides it by 512.
func BenchmarkHandleBatch(b *testing.B) {
	s, g := wnServer(b, 5000, Options{})
	bodies := batchBodies(g, 1024, 512, 56, 1)
	h, w := s.Handler(), &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/batch", bytes.NewReader(bodies[i%len(bodies)]))
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/512, "ns/query")
}
