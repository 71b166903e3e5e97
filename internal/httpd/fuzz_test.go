package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// echo is the handler both servers run in FuzzServeConn. It answers from
// the request alone, and its paths reach every way the writer can end a
// reply: held and streamed bodies, a declared Content-Length, bodiless
// statuses, a sniffed or a set Content-Type, a body read or left unread,
// and a panic.
func echo(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("X-Method", r.Method)
	h.Set("X-Uri", r.RequestURI)
	h.Set("X-Proto", r.Proto)
	h.Set("X-Host", r.Host)
	h.Set("X-Length", strconv.FormatInt(r.ContentLength, 10))
	h.Set("X-Close", strconv.FormatBool(r.Close))
	h["X-Te"] = r.TransferEncoding
	path := r.URL.Path
	var body []byte
	if strings.HasPrefix(path, "/batch") || strings.HasPrefix(path, "/read") {
		var err error
		body, err = io.ReadAll(r.Body)
		h.Set("X-Read", strconv.Itoa(len(body)))
		if err != nil {
			h.Set("X-Read-Error", err.Error())
		}
	}
	switch {
	case strings.HasPrefix(path, "/panic"):
		panic(http.ErrAbortHandler) // what http.Server recovers from without logging
	case strings.HasPrefix(path, "/204"):
		w.WriteHeader(http.StatusNoContent)
	case strings.HasPrefix(path, "/304"):
		h.Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusNotModified)
	case strings.HasPrefix(path, "/big"):
		for i := 0; i < 5; i++ {
			w.Write(bytes.Repeat([]byte{'a' + byte(i)}, 2000))
		}
	case strings.HasPrefix(path, "/cl"):
		h.Set("Content-Length", "3000")
		w.Write(bytes.Repeat([]byte("x"), 1000))
		w.Write(bytes.Repeat([]byte("y"), 2000))
	case strings.HasPrefix(path, "/typed"):
		h.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, `{"read":%d}`, len(body))
	default:
		fmt.Fprintf(w, "%s %s %d %q\n", r.Method, r.RequestURI, len(body), body[:min(len(body), 64)])
	}
}

// reply is one response as a client parses it.
type reply struct {
	proto, status  string
	header         http.Header // less Connection: close and Transfer-Encoding, which the parse takes out
	body           string
	close, chunked bool
}

// exchange writes stream to addr, half-closes, and parses every reply
// until the connection ends — or, with stopAtClose, until the first reply
// that closes it. methods are the stream's request methods in order, which
// the parse of a reply to HEAD needs.
func exchange(t *testing.T, addr string, stream []byte, methods []string, stopAtClose bool) []reply {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Closing with a reset leaves no TIME_WAIT behind: a fuzzing run opens
	// more connections than there are ephemeral ports.
	nc.(*net.TCPConn).SetLinger(0)
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		nc.Write(stream)
		nc.(*net.TCPConn).CloseWrite()
	}()
	br := bufio.NewReader(nc)
	var out []reply
	for n := 0; ; {
		method := "GET"
		if n < len(methods) {
			method = methods[n]
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the connection to %s neither ended nor replied in 5 s, after %d replies", addr, len(out))
		}
		if err != nil {
			return out
		}
		body, err := io.ReadAll(resp.Body)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("a reply body from %s did not end in 5 s, after %d replies", addr, len(out))
		}
		// Both servers close on a request they refuse with its stream
		// unread, and the kernel then resets the connection: a body that
		// runs to the close can end in ECONNRESET instead of EOF, after
		// every byte sent.
		if err != nil && !errors.Is(err, syscall.ECONNRESET) {
			body = append(body, "<read error>"...)
		}
		out = append(out, reply{resp.Proto, resp.Status, resp.Header, string(body), resp.Close, slices.Contains(resp.TransferEncoding, "chunked")})
		if resp.StatusCode >= 200 {
			n++
		}
		if resp.Close && stopAtClose {
			return out
		}
	}
}

// methodsOf parses stream as a server would and lists its request methods.
func methodsOf(stream []byte) []string {
	br := bufio.NewReader(bytes.NewReader(stream))
	var methods []string
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

// loopback serves on a fresh loopback listener until the test ends.
func loopback(t testing.TB, serve func(net.Listener) error, stop func() error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln)
	}()
	t.Cleanup(func() {
		stop()
		<-done
	})
	return ln.Addr().String()
}

// pad stands for padBytes bytes in a fuzzing input, so that an input can
// run into the head and drain caps and stay small enough to mutate and
// minimize.
const (
	pad      = "{{pad}}"
	padBytes = 300 << 10
)

func crlf(lines ...string) string { return strings.Join(lines, "\r\n") }

// seedStreams are FuzzServeConn's seeds: pipelined request streams
// covering what httpd keeps from http.Server.
func seedStreams() []string {
	get := func(path string) string { return crlf("GET "+path+" HTTP/1.1", "Host: rlc", "", "") }
	batch := `{"queries":[{"s":0,"t":1,"l":"l0 l1"}]}`
	return []string{
		get("/query?s=0&t=1&l=l0+l1") + get("/query?s=1&t=0&l=l1"),
		crlf("POST /batch HTTP/1.1", "Host: rlc", "Content-Type: application/json",
			"Content-Length: "+strconv.Itoa(len(batch)), "", batch) + get("/after"),
		crlf("POST /batch HTTP/1.1", "Host: rlc", "Transfer-Encoding: chunked", "",
			strconv.FormatInt(int64(len(batch)), 16), batch, "0", "", "") + get("/after"),
		crlf("HEAD /query?s=0 HTTP/1.1", "Host: rlc", "", "") + crlf("HEAD /big HTTP/1.1", "Host: rlc", "", "") +
			crlf("HEAD /cl HTTP/1.1", "Host: rlc", "", "") + get("/after"),
		crlf("GET /one HTTP/1.0", "", "") + crlf("GET /two HTTP/1.0", "", ""),
		crlf("GET /one HTTP/1.0", "Connection: keep-alive", "", "") + crlf("GET /cl HTTP/1.0", "Connection: keep-alive", "", "") +
			crlf("GET /big HTTP/1.0", "Connection: keep-alive", "", "") + get("/never"),
		crlf("POST /read HTTP/1.1", "Host: rlc", "Expect: 100-continue", "Content-Length: 5", "", "hello") +
			crlf("POST /unread HTTP/1.1", "Host: rlc", "Expect: 100-continue", "Content-Length: 5", "", "hello") + get("/never"),
		crlf("GET /a HTTP/1.1", "Host: rlc", "Connection: close", "", "") + get("/never"),
		"GARBAGE\r\n\r\n" + get("/never"),
		get("/query") + crlf("GET / HTTP/1.1", "Host: rlc", "X-Pad: "+strings.Repeat(pad, 4), "", "") + get("/never"),
		crlf("POST /batch HTTP/1.1", "Host: rlc", "Content-Length: 3", "Transfer-Encoding: chunked", "", "3", "abc", "0", "", "") + get("/after"),
		crlf("POST /unread HTTP/1.1", "Host: rlc", "Content-Length: 1000", "", strings.Repeat("b", 1000)) +
			crlf("POST /unread HTTP/1.1", "Host: rlc", "Content-Length: "+strconv.Itoa(padBytes), "", pad) + get("/never"),
		get("/ok") + get("/panic") + get("/never"),
		get("/204") + get("/304") + get("/typed") + get("/big") + get("/cl"),
		crlf("GET / HTTP/1.1", "Host:", "", "") + crlf("GET / HTTP/1.1", "", "") + get("/never"),
		crlf("GET http://rlc/abs HTTP/1.1", "", "") + get("/never"),
		crlf("POST /read HTTP/1.1", "Host: rlc", "Transfer-Encoding: gzip", "", "") + get("/never"),
		crlf("GET / HTTP/2.0", "Host: rlc", "", "") + get("/never"),
		crlf("OPTIONS * HTTP/1.1", "Host: rlc", "", "") + get("/after"),
		crlf("GET / HTTP/1.1", "Host: rlc", "Expect: magic", "", "") + get("/never"),
	}
}

// FuzzServeConn holds httpd to http.Server: one byte stream of pipelined
// requests goes to each, both serving echo, and the replies must match in
// number, protocol, status, body and every header but Date and the framing
// (Content-Length, Transfer-Encoding, Connection). Where http.Server closes
// the connection it stops being read — it then waits half a second before
// closing — while httpd is read to the end, so a reply after its close
// would show.
func FuzzServeConn(f *testing.F) {
	for _, s := range seedStreams() {
		f.Add([]byte(s))
	}
	ref := &http.Server{Handler: http.HandlerFunc(echo), ErrorLog: log.New(io.Discard, "", 0)}
	refAddr := loopback(f, ref.Serve, ref.Close)
	ours := &Server{Handler: http.HandlerFunc(echo)}
	ourAddr := loopback(f, ours.Serve, ours.Close)
	f.Fuzz(func(t *testing.T, stream []byte) {
		stream = bytes.ReplaceAll(stream, []byte(pad), bytes.Repeat([]byte("p"), padBytes))
		methods := methodsOf(stream)
		want := exchange(t, refAddr, stream, methods, true)
		got := exchange(t, ourAddr, stream, methods, false)
		if len(got) != len(want) {
			t.Fatalf("%d replies, http.Server sent %d\ngot:  %+v\nwant: %+v", len(got), len(want), got, want)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.proto != w.proto || g.status != w.status || g.body != w.body || g.close != w.close {
				t.Fatalf("reply %d: %s %q %q close=%v, http.Server: %s %q %q close=%v",
					i, g.proto, g.status, g.body, g.close, w.proto, w.status, w.body, w.close)
			}
			if !headersEqual(g.header, w.header) {
				t.Fatalf("reply %d headers:\n%v\nhttp.Server:\n%v", i, g.header, w.header)
			}
		}
	})
}

// headersEqual compares two replies' headers but for Date and the framing,
// which differ between two correct servers: when a body is long enough to
// stream is a buffer size, and the Date a clock.
func headersEqual(a, b http.Header) bool {
	a, b = a.Clone(), b.Clone()
	for _, k := range []string{"Date", "Content-Length", "Transfer-Encoding", "Connection"} {
		delete(a, k)
		delete(b, k)
	}
	return maps.EqualFunc(a, b, slices.Equal[[]string])
}
