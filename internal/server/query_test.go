package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
)

// queryResponse is the GET /query reply as a client decodes it, and the
// struct whose encoding/json rendering appendQueryReply is held to.
type queryResponse struct {
	S         string  `json:"s"`
	T         string  `json:"t"`
	L         string  `json:"l"`
	Reachable bool    `json:"reachable"`
	Cached    bool    `json:"cached"`
	Micros    float64 `json:"micros"`
}

// FuzzQueryParams: on any raw query string, queryParams returns what
// url.ParseQuery and Values.Get return for s, t and l.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"s=0&t=4&l=l0+l1",       // '+' is a space
		"s=1&t=2&l=%28a%2Bb%29", // %2B is a plus
		"s=1&s=2&t=3&t=&l=a&l=b",
		"s=1;t=2&t=3&l=a",   // a pair holding ';' is dropped
		"s=%zz&s=7&t=1&l=%", // and so is one with a bad escape
		"s&t=1&l=a",         // a key without '='
		"%73=1&%74=2&%6c=a", // escaped keys
		"s=&t=1&l=a",
		"=x&&s=1&t=2&l=a&",
		"s=1&t=2&l=a&s=%zz",
		"s+=1&+t=2&l=a",
		"x=1&y=2",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		s, tk, l := queryParams(raw)
		if s != want.Get("s") || tk != want.Get("t") || l != want.Get("l") {
			t.Fatalf("%q: scanned (%q, %q, %q), net/url (%q, %q, %q)",
				raw, s, tk, l, want.Get("s"), want.Get("t"), want.Get("l"))
		}
	})
}

// FuzzQueryReply: for any strings, either answer and any finite micros,
// appendQueryReply writes the bytes encoding/json's Encoder writes.
func FuzzQueryReply(f *testing.F) {
	for _, seed := range []struct {
		s, t, l string
		micros  float64
	}{
		{"0", "4", "(l0 l1)+", 0.123},
		{"<v1>", "a&b", `"quoted" \ back`, 0},
		{"\x00\x01\b\f\n\r\t\x1f\x7f", "tab\there", "é 😀", 1e-7},
		{"\xff\xfe", "a\xc3", "\xe2\x28\xa1", 1e21},
		{"\u2028", "a\u2029b", "\u2027\u202a", 123456789.125},
		{"", "", "", 1e-6},
		{"v", "w", "a+ b+", 9.999999e20},
		{"v", "w", "l", 2.5e-9},
		{"v", "w", "l", math.MaxFloat64},
		{"v", "w", "l", -0.001},
	} {
		f.Add(seed.s, seed.t, seed.l, true, seed.micros)
	}
	f.Fuzz(func(t *testing.T, s, tk, l string, reachable bool, micros float64) {
		if math.IsNaN(micros) || math.IsInf(micros, 0) {
			t.Skip() // encoding/json refuses them, and a duration never is one
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(queryResponse{S: s, T: tk, L: l, Reachable: reachable, Micros: micros}); err != nil {
			t.Fatal(err)
		}
		// A buffer with no room: every byte lands in what the bound reserved.
		got := appendQueryReply(nil, s, tk, l, reachable, micros)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appended %q\nencoded  %q", got, want.Bytes())
		}
	})
}

// queryAllocs counts the allocations of one GET target through the server's
// whole handler — mux, histogram and all — into a writer that keeps nothing.
func queryAllocs(t *testing.T, s *Server, target string) float64 {
	t.Helper()
	h, w := s.Handler(), &discardWriter{h: http.Header{}}
	r := httptest.NewRequest("GET", target, nil)
	return testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			panic("query refused")
		}
	})
}

// TestQuerySteadyStateAllocs counts what a warmed GET /query allocates, on
// the request the benchmark sends. Measured: 5 on an immutable generation —
// three in parseExpr (left alone: 2% of the handler), the unescaped l, and
// the Content-Length value — and 6 on a mutable one, whose X-Rlc-Seq value is
// the request's own. The commit before this test measured 13 on both.
func TestQuerySteadyStateAllocs(t *testing.T) {
	const target = "/query?s=17&t=423&l=%28l0+l1%29%2B"
	for _, opts := range []Options{{}, {Mutable: true}} {
		s, _ := wnServer(t, 600, opts)
		if got := queryAllocs(t, s, target); got > 6 {
			t.Errorf("GET /query, mutable %v: %.0f allocations, want at most 6", opts.Mutable, got)
		}
	}
}

// TestServeQueryAllocs counts what a warmed keep-alive GET /query costs the
// heap through the whole serving path: Serve's connection loop, the parse of
// the request head (http.ReadRequest) and the handler's own 5 (above). The
// client is a raw socket that allocates nothing per request, so
// testing.AllocsPerRun, which counts the whole process, sees the server
// alone. Measured: 12, of which http.ReadRequest's request, URL, header
// map and strings are 7. Served through http.Server the same request cost
// 23.
func TestServeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s, _ := wnServer(t, 600, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Shutdown(context.Background())
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET /query?s=17&t=423&l=%28l0+l1%29%2B HTTP/1.1\r\nHost: rlc\r\n\r\n")
	buf := make([]byte, 4<<10)
	var n int
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			panic(err)
		}
		for n = 0; !replyComplete(buf[:n]); {
			m, err := c.Read(buf[n:])
			if err != nil {
				panic(err)
			}
			n += m
		}
	}
	roundTrip()
	if !bytes.HasPrefix(buf[:n], []byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatalf("reply %q", buf[:n])
	}
	const budget = 12
	if got := testing.AllocsPerRun(500, roundTrip); got > budget {
		t.Fatalf("%.1f allocations per warmed GET /query, budget %d", got, budget)
	}
}

// replyComplete reports whether b holds a whole reply, framed by its
// Content-Length.
func replyComplete(b []byte) bool {
	end := bytes.Index(b, []byte("\r\n\r\n"))
	if end < 0 {
		return false
	}
	const key = "\r\nContent-Length: "
	i := bytes.Index(b[:end], []byte(key))
	if i < 0 {
		panic("reply without Content-Length")
	}
	length := 0
	for _, d := range b[i+len(key) : end] {
		if d < '0' || d > '9' {
			break
		}
		length = length*10 + int(d-'0')
	}
	return len(b) >= end+4+length
}

// TestQueryHonoursCancel: a read whose client has gone away stops with the
// context's error, typed "canceled", instead of finishing the overlay search
// for nobody — on /query, and in every slot of a /batch with journal edges
// pending.
func TestQueryHonoursCancel(t *testing.T) {
	s := New(buildIndex(t, graph.Fig2()), Options{Mutable: true, RebuildThreshold: -1})
	defer s.Close()
	// (v1, v4, l1+) is false on the base, so with a journal pending it is
	// the overlay search that answers.
	if _, err := s.UpdateBatch([]graph.Edge{{Src: 5, Label: 1, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/query?s=v1&t=v4&l=l1", nil).WithContext(gone))
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusUnprocessableEntity || er.Code != "canceled" {
		t.Fatalf("/query: status %d, %+v; want 422 and code canceled", rec.Code, er)
	}

	rec = httptest.NewRecorder()
	body := `{"queries":[{"s":"v1","t":"v4","l":"l1"},{"s":"v1","t":"v4","l":"l1"}]}`
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(body)).WithContext(gone))
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("/batch: status %d: %s", rec.Code, rec.Body)
	}
	for i, res := range br.Results {
		if res.Reachable || res.Code != "canceled" {
			t.Fatalf("/batch slot %d: %+v; want code canceled", i, res)
		}
	}
}
