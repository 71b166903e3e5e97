package httpd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveEcho serves echo through httpd until the test ends.
func serveEcho(t *testing.T) string {
	s := &Server{Handler: http.HandlerFunc(echo)}
	return loopback(t, s.Serve, s.Close)
}

// replies sends stream to a fresh httpd serving echo and returns what
// comes back before the connection ends.
func replies(t *testing.T, stream string) []reply {
	t.Helper()
	b := []byte(stream)
	return exchange(t, serveEcho(t), b, methodsOf(b), false)
}

// statuses lists the replies' status codes, each followed by "close" when
// the reply says the connection ends with it.
func statuses(rs []reply) string {
	var out []string
	for _, r := range rs {
		out = append(out, r.status[:3])
		if r.close {
			out = append(out, "close")
		}
	}
	return strings.Join(out, " ")
}

func post(path, body string, headers ...string) string {
	lines := append([]string{"POST " + path + " HTTP/1.1", "Host: rlc"}, headers...)
	return crlf(append(lines, "Content-Length: "+strconv.Itoa(len(body)), "", body)...)
}

func get(path string, headers ...string) string {
	return crlf(append(append([]string{"GET " + path + " HTTP/1.1", "Host: rlc"}, headers...), "", "")...)
}

// TestKeptFromHTTPServer pins each constant httpd keeps from http.Server,
// one pipelined stream per behaviour: the status of every reply, and
// "close" after one that says it closes the connection (Connection: close,
// or HTTP/1.0 without keep-alive).
func TestKeptFromHTTPServer(t *testing.T) {
	for _, tc := range []struct {
		name, stream, want string
	}{
		{"keep-alive", get("/a") + get("/b"), "200 200"},
		{"head at the cap", get("/", "X-Pad: "+strings.Repeat("a", 1<<20-64)) + get("/b"), "200 200"},
		{"head past the cap", get("/", "X-Pad: "+strings.Repeat("a", 1<<20+4<<10)) + get("/b"), "431 close"},
		{"malformed request line", "GET\r\n\r\n" + get("/b"), "400 close"},
		{"unsupported transfer coding", crlf("POST /read HTTP/1.1", "Host: rlc", "Transfer-Encoding: gzip", "", "") + get("/b"), "501 close"},
		{"HTTP/2.0 request line", crlf("GET / HTTP/2.0", "Host: rlc", "", "") + get("/b"), "505 close"},
		{"missing Host", crlf("GET / HTTP/1.1", "", "") + get("/b"), "400 close"},
		{"body drained at the cap", post("/unread", strings.Repeat("x", maxDrainBytes)) + get("/b"), "200 200"},
		{"body past the drain cap", post("/unread", strings.Repeat("x", maxDrainBytes+1)) + get("/b"), "200 close"},
		{"Connection: close asked for", get("/a", "Connection: close") + get("/b"), "200 close"},
		{"HTTP/1.0 without keep-alive", crlf("GET /a HTTP/1.0", "", "") + get("/b"), "200 close"},
		{"HTTP/1.0 keep-alive", crlf("GET /a HTTP/1.0", "Connection: keep-alive", "", "") + get("/b"), "200 200"},
		{"100-continue, body read", post("/read", "hello", "Expect: 100-continue") + get("/b"), "100 200 200"},
		{"100-continue, body unread", post("/unread", "hello", "Expect: 100-continue") + get("/b"), "200 close"},
		{"unknown expectation", get("/a", "Expect: magic") + get("/b"), "417 close"},
		{"panic", get("/panic") + get("/b"), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := statuses(replies(t, tc.stream)); got != tc.want {
				t.Fatalf("replies %q, want %q", got, tc.want)
			}
		})
	}
}

// TestReplyFraming pins how a reply's body is framed and typed: held
// bodies carry a Content-Length and a sniffed type, longer ones are chunked
// (or end with the connection, to HTTP/1.0), a declared Content-Length is
// streamed as it stands, and HEAD, 204 and 304 carry no body.
func TestReplyFraming(t *testing.T) {
	rs := replies(t, get("/typed")+get("/big")+get("/cl")+crlf("HEAD /a HTTP/1.1", "Host: rlc", "", "")+get("/204")+get("/304")+
		crlf("GET /big HTTP/1.0", "", ""))
	type framing struct {
		length         string
		chunked, close bool
		ctype          string
	}
	want := []framing{
		{"10", false, false, "application/json"},
		{"", true, false, "text/plain; charset=utf-8"},
		{"3000", false, false, "text/plain; charset=utf-8"},
		{strconv.Itoa(len("HEAD /a 0 \"\"\n")), false, false, "text/plain; charset=utf-8"},
		{"", false, false, ""},
		{"", false, false, ""},
		{"", false, true, "text/plain; charset=utf-8"},
	}
	if len(rs) != len(want) {
		t.Fatalf("%d replies, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		got := framing{r.header.Get("Content-Length"), r.chunked, r.close, r.header.Get("Content-Type")}
		if got != want[i] {
			t.Errorf("reply %d (%s): %+v, want %+v", i, r.status, got, want[i])
		}
		if r.header.Get("Date") == "" {
			t.Errorf("reply %d has no Date", i)
		}
	}
	if rs[3].body != "" || rs[4].body != "" || rs[5].body != "" {
		t.Errorf("HEAD/204/304 bodies %q %q %q", rs[3].body, rs[4].body, rs[5].body)
	}
	if len(rs[1].body) != 10000 || len(rs[6].body) != 10000 || rs[2].body != strings.Repeat("x", 1000)+strings.Repeat("y", 2000) {
		t.Errorf("streamed bodies of %d, %d and %d bytes", len(rs[1].body), len(rs[6].body), len(rs[2].body))
	}
}

// countingListener counts the Writes on the connections it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return &countingConn{c, &l.writes}, err
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerReply: a reply whose body fits the buffer — status line,
// headers, Date, Content-Length, body — leaves in one Write.
func TestOneWritePerReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	s := &Server{Handler: http.HandlerFunc(echo)}
	go s.Serve(cl)
	defer s.Close()
	stream := []byte(strings.Repeat(get("/query?s=0&t=1&l=l0"), 10))
	rs := exchange(t, ln.Addr().String(), stream, methodsOf(stream), false)
	if len(rs) != 10 {
		t.Fatalf("%d replies", len(rs))
	}
	if n := cl.writes.Load(); n != 10 {
		t.Fatalf("%d Writes for 10 replies", n)
	}
}

// TestPanicClosesOnlyItsConnection: a handler panic is logged, its
// connection closes without a reply, and the server keeps serving.
func TestPanicClosesOnlyItsConnection(t *testing.T) {
	logged := &lockedBuffer{}
	defer log.SetOutput(log.Writer())
	log.SetOutput(logged)
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic("boom")
		}
		echo(w, r)
	})}
	addr := loopback(t, s.Serve, s.Close)
	stream := []byte(get("/a") + get("/panic") + get("/b"))
	if got := statuses(exchange(t, addr, stream, methodsOf(stream), false)); got != "200" {
		t.Fatalf("replies %q, want the one before the panic", got)
	}
	if !strings.Contains(logged.String(), "httpd: panic serving") || !strings.Contains(logged.String(), "boom") {
		t.Fatalf("panic not logged: %q", logged.String())
	}
	stream = []byte(get("/c"))
	if got := statuses(exchange(t, addr, stream, methodsOf(stream), false)); got != "200" {
		t.Fatalf("after the panic: replies %q", got)
	}
}

// lockedBuffer is a log output the server's goroutines and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestShutdown: Shutdown closes idle connections at once, lets a busy one
// finish its request with Connection: close, gives up when its context
// ends, and makes Serve return http.ErrServerClosed — also a Serve called
// after it.
func TestShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			started <- struct{}{}
			<-release
		}
		io.WriteString(w, "ok")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	// The idle connection has been served once, so the server holds it.
	idleConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idleConn.Close()
	io.WriteString(idleConn, get("/a"))
	idleReader := bufio.NewReader(idleConn)
	resp, err := http.ReadResponse(idleReader, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	busy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, get("/slow"))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a request running: %v, want the context's deadline", err)
	}
	if _, err := idleReader.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read %v, want EOF", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown once the request is done: %v", err)
	}
	reply, _ := io.ReadAll(busy)
	if !bytes.Contains(reply, []byte("Connection: close\r\n")) || !bytes.HasSuffix(reply, []byte("\r\n\r\nok")) {
		t.Fatalf("busy connection got %q", reply)
	}

	if err := s.Serve(ln); err != http.ErrServerClosed {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	early := &Server{Handler: http.NotFoundHandler()}
	early.Shutdown(context.Background())
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := early.Serve(ln2); err != http.ErrServerClosed {
		t.Fatalf("Serve after an early Shutdown: %v", err)
	}
}

// TestCloseCancelsRequests: a request's context is its connection's, and
// Close cancels it.
func TestCloseCancelsRequests(t *testing.T) {
	started := make(chan struct{})
	done := make(chan error, 1)
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done()
		done <- r.Context().Err()
	})}
	addr := loopback(t, s.Serve, s.Close)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, get("/wait"))
	<-started
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the running request")
	}
}
