package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/httpd/httpdtest"
	"github.com/g-rpqs/rlc-go/internal/server"
)

// fakeBackend is a scripted replica: a /healthz with settable coordinates
// and a /query that records hits, optionally delays, and stamps the
// replication headers a real server would.
type fakeBackend struct {
	hts   *httptest.Server
	role  string
	seq   atomic.Uint64
	epoch atomic.Uint64
	down  atomic.Bool
	delay atomic.Int64 // nanoseconds
	hits  atomic.Uint64
	// override, when set, sees every request first; true means it answered.
	override atomic.Pointer[func(http.ResponseWriter, *http.Request) bool]
}

func newFakeBackend(t *testing.T, role string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{role: role}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "role": f.role, "generation": 1,
			"journal_seq": f.seq.Load(), "epoch": f.epoch.Load(),
			"bundle_fingerprint": "7.24.3.0000000000000000",
		})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set(server.HeaderEpoch, fmt.Sprint(f.epoch.Load()))
		w.Header().Set(server.HeaderSeq, fmt.Sprint(f.seq.Load()))
		json.NewEncoder(w).Encode(map[string]any{"reachable": true})
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		seq := f.seq.Add(1)
		w.Header().Set(server.HeaderEpoch, fmt.Sprint(f.epoch.Load()))
		w.Header().Set(server.HeaderSeq, fmt.Sprint(seq))
		json.NewEncoder(w).Encode(map[string]any{"accepted": 1, "seq": seq})
	})
	f.hts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := f.override.Load(); h != nil && (*h)(w, r) {
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.hts.Close)
	return f
}

func newTestRouter(t *testing.T, leader *fakeBackend, followers []*fakeBackend, hedge time.Duration) (*Router, *httpdtest.Server) {
	t.Helper()
	urls := make([]string, len(followers))
	for i, f := range followers {
		urls[i] = f.hts.URL
	}
	rt := New(Options{LeaderURL: leader.hts.URL, FollowerURLs: urls, HedgeDelay: hedge})
	rt.Refresh(context.Background())
	hts := httpdtest.NewServer(rt.Handler())
	t.Cleanup(hts.Close)
	return rt, hts
}

func get(t *testing.T, url string, pinTok string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if pinTok != "" {
		req.Header.Set(HeaderPin, pinTok)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestPinGating routes a pinned read only to replicas at or past the pin;
// a replica behind the pin must never see the request.
func TestPinGating(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	leader.seq.Store(100)
	ahead := newFakeBackend(t, "follower")
	ahead.seq.Store(80)
	behind := newFakeBackend(t, "follower")
	behind.seq.Store(20)
	_, hts := newTestRouter(t, leader, []*fakeBackend{ahead, behind}, -1)

	for i := 0; i < 20; i++ {
		resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:50")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if n := behind.hits.Load(); n != 0 {
		t.Fatalf("replica behind the pin served %d requests", n)
	}
	if ahead.hits.Load() == 0 {
		t.Fatal("eligible replica never served")
	}

	// A pin beyond every follower falls back to the leader.
	prev := leader.hits.Load()
	get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:90")
	if leader.hits.Load() != prev+1 {
		t.Fatal("over-pin did not fall back to the leader")
	}
}

// TestPinMonotonic: the returned token never regresses, whichever backend
// answers — stale backend coordinates keep the request pin instead.
func TestPinMonotonic(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	leader.seq.Store(10)
	_, hts := newTestRouter(t, leader, nil, -1)

	// Backend reports seq 10; request pinned at 3 → token advances to 10.
	resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:3")
	if p := resp.Header.Get(HeaderPin); p != "0:10" {
		t.Fatalf("pin %q, want 0:10", p)
	}
	// Request pinned past the backend's report → token must not regress.
	// (Only possible via the leader fallback, whose true seq is newer than
	// any token; the router still must not hand back a smaller number.)
	resp = get(t, hts.URL+"/query?s=0&t=1&l=l0", "2:400")
	if p := resp.Header.Get(HeaderPin); p != "2:400" {
		t.Fatalf("pin %q, want request pin 2:400 preserved", p)
	}
}

// TestUnhealthySkipped: a follower that stops answering health checks
// stops receiving traffic after the next refresh.
func TestUnhealthySkipped(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	f1 := newFakeBackend(t, "follower")
	f2 := newFakeBackend(t, "follower")
	rt, hts := newTestRouter(t, leader, []*fakeBackend{f1, f2}, -1)

	f1.down.Store(true)
	rt.Refresh(context.Background())
	base := f1.hits.Load()
	for i := 0; i < 10; i++ {
		get(t, hts.URL+"/query?s=0&t=1&l=l0", "")
	}
	if n := f1.hits.Load() - base; n != 0 {
		t.Fatalf("unhealthy follower served %d requests", n)
	}
	if f2.hits.Load() == 0 {
		t.Fatal("healthy follower never served")
	}
}

// TestHedging: when the first replica sits on a request past the hedge
// delay, a second attempt fires and the fast replica's answer wins.
func TestHedging(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	slow := newFakeBackend(t, "follower")
	slow.delay.Store(int64(2 * time.Second))
	fast := newFakeBackend(t, "follower")
	_, hts := newTestRouter(t, leader, []*fakeBackend{slow, fast}, 5*time.Millisecond)

	// Run enough reads that rotation starts on the slow replica at least
	// once; each must finish far under the slow delay.
	start := time.Now()
	for i := 0; i < 6; i++ {
		resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("hedged reads took %v; hedge did not fire", e)
	}
	if slow.hits.Load() == 0 || fast.hits.Load() == 0 {
		t.Fatalf("hits slow=%d fast=%d; both replicas should have been tried", slow.hits.Load(), fast.hits.Load())
	}
}

// TestWriteForwarding: updates go to the leader exactly once (never
// hedged, never to followers) and mint the advanced token.
func TestWriteForwarding(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	f1 := newFakeBackend(t, "follower")
	_, hts := newTestRouter(t, leader, []*fakeBackend{f1}, 0)

	resp, err := http.Post(hts.URL+"/update", "application/json",
		io.NopCloser(io.LimitReader(nil, 0)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if p := resp.Header.Get(HeaderPin); p != "0:1" {
		t.Fatalf("write token %q, want 0:1", p)
	}
	if leader.hits.Load() != 1 || f1.hits.Load() != 0 {
		t.Fatalf("hits leader=%d follower=%d, want 1/0", leader.hits.Load(), f1.hits.Load())
	}
}

// TestParsePin: the token comes from the header, else from a literal pin=
// parameter; the query string is not parsed for anything else.
func TestParsePin(t *testing.T) {
	for _, tc := range []struct {
		query, header string
		want          pin
		bad           bool
	}{
		{query: "s=0&t=1&l=l0"},
		{query: "s=0&t=1&l=l0", header: "2:7", want: pin{2, 7}},
		{query: "s=0&pin=3:9&t=1", want: pin{3, 9}},
		{query: "pin=3%3A9", want: pin{3, 9}},
		{query: "pin=3:9", header: "4:11", want: pin{4, 11}}, // the header wins
		{query: "pin=", header: "4:11", want: pin{4, 11}},
		{query: "pin="},
		{query: "spin=1:2"}, // not the parameter, though it spells "pin="
		{query: "pin=nine", bad: true},
		{query: "pin=3:", bad: true},
		{query: "pin=3:-1", bad: true},
		{query: "s=0", header: "3", bad: true},
	} {
		req := httptest.NewRequest(http.MethodGet, "/query?"+tc.query, nil)
		if tc.header != "" {
			req.Header.Set(HeaderPin, tc.header)
		}
		got, err := parsePin(req)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("?%s header %q: pin %v err %v, want %v bad=%v", tc.query, tc.header, got, err, tc.want, tc.bad)
		}
	}

	// End to end, a malformed pin is the client's error and reaches no backend.
	leader := newFakeBackend(t, "leader")
	_, hts := newTestRouter(t, leader, nil, -1)
	if resp := get(t, hts.URL+"/query?s=0&t=1&l=l0&pin=nine", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed pin=: status %d, want 400", resp.StatusCode)
	}
	if n := leader.hits.Load(); n != 0 {
		t.Fatalf("malformed pin reached the leader %d times", n)
	}
	if p := (pin{18446744073709551615, 18446744073709551615}).String(); p != "18446744073709551615:18446744073709551615" {
		t.Fatalf("token %q", p)
	}
}

// TestStatsShape pins GET /stats: the key set, and that the counters count
// what their names say.
func TestStatsShape(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	leader.seq.Store(50)
	slow := newFakeBackend(t, "follower")
	slow.delay.Store(int64(300 * time.Millisecond))
	_, hts := newTestRouter(t, leader, []*fakeBackend{slow}, 5*time.Millisecond)

	get(t, hts.URL+"/query?s=0&t=1&l=l0", "")     // the follower is slow: hedged to the leader, which wins
	get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:40") // no follower at the pin: straight to the leader

	resp, err := http.Get(hts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var raw map[string]json.RawMessage
	var st routerStats
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"hedges_fired", "hedges_won", "attempts_failed", "stale_retries",
		"dials", "leader_fallbacks", "protocol_errors", "backends"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("/stats lacks %q", k)
		}
	}
	if len(raw) != 8 {
		t.Errorf("/stats has %d keys, want 8: %s", len(raw), body)
	}
	if st.HedgesFired != 1 || st.HedgesWon != 1 || st.LeaderFallbacks != 1 || st.AttemptsFailed != 0 || st.ProtocolErrors != 0 {
		t.Errorf("counters %+v, want 1 hedge fired and won, 1 leader fallback, no failures", st)
	}
	if st.Dials < 2 {
		t.Errorf("dials %d, want at least one per backend", st.Dials)
	}
	want := []backendStats{{leader.hts.URL, "leader", 2}, {slow.hts.URL, "follower", 0}}
	if len(st.Backends) != 2 || st.Backends[0] != want[0] || st.Backends[1] != want[1] {
		t.Errorf("backends %+v, want %+v", st.Backends, want)
	}
}

// TestOverLimitBodyRefused: a /update or /batch body past the replicas'
// cap is answered 413 body_too_large by the router itself, and no backend
// sees a byte of it (before this check the leader and the follower each
// received the first 8 MiB + 1 bytes and refused them). A body at the cap
// is forwarded.
func TestOverLimitBodyRefused(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	follower := newFakeBackend(t, "follower")
	var forwarded atomic.Int64
	count := func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method == http.MethodPost {
			forwarded.Add(1)
		}
		return false
	}
	leader.override.Store(&count)
	follower.override.Store(&count)
	_, hts := newTestRouter(t, leader, []*fakeBackend{follower}, -1)

	post := func(path string, size int) (int, string) {
		t.Helper()
		resp, err := http.Post(hts.URL+path, "application/json", strings.NewReader(strings.Repeat("x", size)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Code
	}
	for _, path := range []string{"/update", "/batch"} {
		if status, code := post(path, server.DefaultMaxBodyBytes+1); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
			t.Fatalf("%s past the cap: status %d code %q, want 413 body_too_large", path, status, code)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("%d over-limit bodies reached a backend", n)
	}
	if status, _ := post("/update", server.DefaultMaxBodyBytes); status != http.StatusOK {
		t.Fatalf("/update at the cap: status %d", status)
	}
	if n := forwarded.Load(); n != 1 {
		t.Fatalf("a body at the cap reached the backends %d times, want 1", n)
	}
}
