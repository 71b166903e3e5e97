package router

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

// realReply is a /query answer as rlccluster -role leader wrote it on the
// Fig. 2 graph.
const realReply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Rlc-Epoch: 0\r\nX-Rlc-Seq: 0\r\n" +
	"Date: Thu, 01 Oct 2026 17:08:07 GMT\r\nContent-Length: 80\r\n\r\n" +
	`{"s":"v1","t":"v5","l":"l1 l2","reachable":true,"cached":false,"micros":12.323}` + "\n"

// realChunkedReply is realReply as httpd frames it once a reply outgrows
// its buffer: the same head and body, the body sent in two chunks.
const realChunkedReply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Rlc-Epoch: 0\r\nX-Rlc-Seq: 0\r\n" +
	"Date: Thu, 01 Oct 2026 17:08:07 GMT\r\nTransfer-Encoding: chunked\r\n\r\n" +
	"20\r\n" + `{"s":"v1","t":"v5","l":"l1 l2","` + "\r\n" +
	"30\r\n" + `reachable":true,"cached":false,"micros":12.323}` + "\n\r\n0\r\n\r\n"

const chunkedReply = "HTTP/1.1 200 OK\r\ncontent-type:text/plain\r\nX-RLC-EPOCH:\t 3 \r\nx-rlc-seq: 17\r\n" +
	"Transfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"

// replySeeds are the shapes the upstream has to take a position on; the
// bool says whether it accepts them.
var replySeeds = []struct {
	raw    string
	accept bool
}{
	{realReply, true},
	{chunkedReply, true},
	{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n", false}, // trailers
	{"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", true},
	{"HTTP/1.1 200\nCONTENT-LENGTH:   2\t\nConnection: keep-alive, Close\n\nok", true},                        // bare LF, odd case and spacing
	{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", false}, // both framings
	{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok", false},
	{"HTTP/1.1 502 Bad Gateway\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbad", true},
	{"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the peer closes", false}, // close-delimited
	{"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", false},
	{"HTTP/1.1 204 No Content\r\n\r\n", false},
	{"HTTP/1.1 100 Continue\r\n\r\n", false},
	{"HTTP/1.1 200 OK\r\nX-Rlc-Seq : 4\r\nContent-Length: 0\r\n\r\n", false},        // space before the colon
	{"HTTP/1.1 200 OK\r\nX-Note: a\r\n folded\r\nContent-Length: 0\r\n\r\n", false}, // obs-fold
	{"HTTP/1.1 200 OK\r\nX-Rlc-Seq:\r\nX-Rlc-Seq: 9\r\nContent-Length: 0\r\n\r\n", true},
	{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2 \r\nok\r\n0\r\n\r\n", false}, // space after the size
	{"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nxHTTP/1.1 200 OK\r\n", true},            // bytes nobody asked for follow
}

func parseReply(raw []byte) (*conn, error) {
	c := &conn{br: bufio.NewReader(bytes.NewReader(raw))}
	return c, c.readReply()
}

// checkAgainstNetHTTP is the differential: whatever the upstream accepts,
// http.ReadResponse accepts too, and reads the same status, relayed
// headers, body and keep-alive verdict out of it.
func checkAgainstNetHTTP(t *testing.T, raw []byte) (accepted bool) {
	t.Helper()
	c, err := parseReply(raw)
	if err != nil {
		return false
	}
	resp, herr := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
	var body []byte
	if herr == nil {
		body, herr = io.ReadAll(resp.Body)
	}
	if herr != nil {
		t.Fatalf("upstream accepted a reply net/http refuses (%v):\n%q", herr, raw)
	}
	rep := &c.rep
	if rep.status != resp.StatusCode {
		t.Fatalf("status %d, net/http %d:\n%q", rep.status, resp.StatusCode, raw)
	}
	for i, name := range relayedNames {
		if got, want := string(rep.hdr[i]), resp.Header.Get(name); got != want {
			t.Fatalf("%s %q, net/http %q:\n%q", name, got, want, raw)
		}
	}
	if !bytes.Equal(rep.body, body) {
		t.Fatalf("body %q, net/http %q:\n%q", rep.body, body, raw)
	}
	if rep.close != resp.Close {
		t.Fatalf("close %v, net/http %v:\n%q", rep.close, resp.Close, raw)
	}
	return true
}

// TestReadReplySeeds pins which seed shapes are accepted, and that no
// proper prefix of a valid reply is: an error, never a hang or a panic.
func TestReadReplySeeds(t *testing.T) {
	for _, s := range replySeeds {
		if got := checkAgainstNetHTTP(t, []byte(s.raw)); got != s.accept {
			_, err := parseReply([]byte(s.raw))
			t.Errorf("accepted=%v (err %v), want %v:\n%q", got, err, s.accept, s.raw)
		}
	}
	for _, whole := range []string{realReply, chunkedReply} {
		for n := 0; n < len(whole); n++ {
			if _, err := parseReply([]byte(whole[:n])); err == nil {
				t.Errorf("prefix of %d bytes read as a complete reply:\n%q", n, whole[:n])
			}
		}
	}
	// A refusal on the grounds of shape is typed.
	_, err := parseReply([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nbody"))
	var pe *protocolError
	if !errors.As(err, &pe) {
		t.Errorf("close-delimited body: err %v, want a *protocolError", err)
	}
}

func FuzzReadReply(f *testing.F) {
	for _, s := range replySeeds {
		f.Add([]byte(s.raw))
	}
	for _, whole := range []string{realReply, chunkedReply} {
		for n := 0; n < len(whole); n += 7 {
			f.Add([]byte(whole[:n]))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) { checkAgainstNetHTTP(t, raw) })
}

// TestNoCrossTalk: the one bug a hand-rolled pooled client can introduce is
// handing a client the reply to somebody else's request. Backends echo the
// query, stall past the hedge delay, ask to close and hang up at random;
// every client must still read its own answer, every time.
func TestNoCrossTalk(t *testing.T) {
	const clients, perClient = 16, 1250
	hedge := 2 * time.Millisecond
	echo := func(role string) *fakeBackend {
		f := newFakeBackend(t, role)
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(len(role))))
		query := func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/query" {
				return false
			}
			mu.Lock()
			roll := rng.Intn(100)
			mu.Unlock()
			switch {
			case roll < 3:
				time.Sleep(3 * hedge)
			case roll < 5:
				w.Header().Set("Connection", "close")
			case roll < 7:
				if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
					c.Close()
				}
				return true
			}
			io.WriteString(w, r.URL.RawQuery)
			return true
		}
		f.override.Store(&query)
		return f
	}
	leader := echo("leader")
	rt, hts := newTestRouter(t, leader, []*fakeBackend{echo("follower"), echo("follower")}, hedge)

	var wrong atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				q := fmt.Sprintf("client=%d&i=%d&pad=%s", cl, i, strings.Repeat("x", (cl*7+i)%64))
				resp, err := client.Get(hts.URL + "/query?" + q)
				if err != nil {
					t.Errorf("client %d read %d: %v", cl, i, err)
					wrong.Add(1)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || string(body) != q {
					t.Errorf("client %d read %d: status %d body %q, want %q", cl, i, resp.StatusCode, body, q)
					wrong.Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d reads wrong", n, clients*perClient)
	}
	// The run must have been through the paths that can cross replies.
	st := &rt.stats
	t.Logf("hedges fired %d won %d, attempts failed %d, stale retries %d, dials %d",
		st.hedgesFired.Load(), st.hedgesWon.Load(), st.attemptsFailed.Load(), st.staleRetries.Load(), st.dials.Load())
	if st.hedgesWon.Load() == 0 || st.staleRetries.Load() == 0 || st.attemptsFailed.Load() == 0 {
		t.Fatal("no hedge won, no stale connection retried or no attempt failed: the test exercised nothing")
	}
}

// TestStaleConnection: a pooled connection the backend closed while it sat
// idle costs a read nothing but a redial; a write whose bytes left is never
// sent twice, whatever happened to it.
func TestStaleConnection(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	rt, hts := newTestRouter(t, leader, nil, -1)

	if resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	leader.hts.CloseClientConnections()
	if resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("read over a connection closed while idle: status %d", resp.StatusCode)
	}
	if n := rt.stats.staleRetries.Load(); n != 1 {
		t.Fatalf("stale retries %d, want 1", n)
	}

	// The leader now reads an /update and hangs up without answering, on a
	// connection that has served before — exactly what an idle close looks
	// like from the sending side, except that the request arrived.
	hangUp := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/update" {
			return false
		}
		leader.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
			c.Close()
		}
		return true
	}
	leader.override.Store(&hangUp)
	before := leader.hits.Load()
	resp, err := http.Post(hts.URL+"/update", "application/json", strings.NewReader(`{"s":0,"l":"l0","t":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if n := leader.hits.Load() - before; n != 1 {
		t.Fatalf("the leader saw the write %d times, want exactly once", n)
	}
}

// cannedBackend answers every request but GET /healthz with reply, over
// raw TCP from fixed bytes without allocating, so testing.AllocsPerRun —
// which counts the whole process — sees only the router.
func cannedBackend(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	canned := []byte(reply)
	health := `{"status":"ok","role":"follower","journal_seq":7,"epoch":1}`
	healthz := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(health), health))
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 4096)
				for n := 0; ; {
					m, err := nc.Read(buf[n:])
					if err != nil {
						return
					}
					if n += m; !bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
						continue
					}
					out := canned
					if bytes.HasPrefix(buf[:n], []byte("GET /healthz")) {
						out = healthz
					}
					if _, err := nc.Write(out); err != nil {
						return
					}
					n = 0
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// stubWriter is the least a ResponseWriter can be: relay's own cost, not
// net/http's.
type stubWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *stubWriter) Header() http.Header { return w.h }
func (w *stubWriter) WriteHeader(s int)   { w.status = s }
func (w *stubWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// TestReadFastPathAllocs pins what a warmed, unpinned read costs the heap
// between the handler's entry and its last write: the header values relay
// has to hand net/http as strings, and nothing per request in the upstream.
// Measured: 8 with either framing of the backend's reply — Content-Length,
// and the chunked one httpd switches to when a reply outgrows its buffer.
func TestReadFastPathAllocs(t *testing.T) {
	for _, c := range []struct{ name, reply string }{
		{"content-length", realReply},
		{"chunked", realChunkedReply},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := New(Options{LeaderURL: cannedBackend(t, c.reply), FollowerURLs: []string{cannedBackend(t, c.reply)}})
			rt.Refresh(context.Background())
			req := httptest.NewRequest(http.MethodGet, "/query?s=v1&t=v5&l=l1%20l2", nil)
			w := &stubWriter{h: http.Header{}}
			read := func() {
				clear(w.h)
				rt.routeRead(w, req, nil)
			}
			read()
			if want := realReply[strings.Index(realReply, "\r\n\r\n")+4:]; w.status != 200 || string(w.body) != want {
				t.Fatalf("status %d body %q", w.status, w.body)
			}
			if got := w.h.Get(server.HeaderSeq); got != "0" {
				t.Fatalf("%s %q", server.HeaderSeq, got)
			}
			const budget = 8
			if got := testing.AllocsPerRun(500, read); got > budget {
				t.Fatalf("%.1f allocations per warmed read, budget %d", got, budget)
			}
		})
	}
}
