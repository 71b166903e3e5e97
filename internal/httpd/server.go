// Package httpd is the HTTP/1.1 server under every serving binary: one
// goroutine per connection reads each request head with http.ReadRequest,
// runs the handler on that same goroutine against a ResponseWriter the
// connection reuses, and sends a reply whose body fits its buffer — status
// line, headers, body — with one Write.
//
// It does what http.Server does with every request a client can tell apart:
// the 1 MiB + 4 KiB head cap (431), the replies to malformed requests (400,
// 501, 505), the 256 KiB drain of a body the handler left unread,
// Connection: close whenever the connection will close, Expect:
// 100-continue, bodiless HEAD, 204 and 304 replies, Content-Type sniffing,
// chunked or close-delimited framing for a body that outgrows the buffer,
// panic recovery, and a graceful Shutdown. FuzzServeConn holds it to
// http.Server on the same byte streams.
//
// What it leaves out on purpose is http.Server's watch for a client that
// hangs up mid-request: a background read per request and two read-deadline
// updates to stop it, which cost about 2 µs of server CPU per point query
// when measured in front of this loop. A request's context is its
// connection's: cancelled when the connection ends, or by Close, not when
// the peer goes away during the handler. Every handler of this module is bounded without it: /query and
// /batch by the graph and the batch cap, the leader's long poll by its 30 s
// cap, a router race by its backends.
package httpd

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeadBytes is what reading one request head may take off the
	// connection: http.DefaultMaxHeaderBytes plus the 4 KiB http.Server
	// allows for its read buffer. Past it the reply is 431.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4<<10
	// maxDrainBytes is how much body the handler left unread is discarded to
	// keep the connection; past it the reply says Connection: close.
	maxDrainBytes = 256 << 10
	// lingerTime is how long a connection closed with request bytes unread
	// keeps reading after its reply: closing on unread input resets the
	// connection, which can cost the client the reply.
	lingerTime = 500 * time.Millisecond
)

// Server serves HTTP/1.1 on the listeners passed to Serve. Handler nil
// serves http.DefaultServeMux. The zero value with a Handler is ready; set
// Handler before the first Serve.
type Server struct {
	Handler http.Handler

	closing   atomic.Bool // Shutdown or Close has begun
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	ctx       context.Context // every connection's parent; Close cancels it
	cancel    context.CancelFunc
}

// initLocked readies the zero Server; s.mu is held.
func (s *Server) initLocked() {
	if s.ctx == nil {
		s.ctx, s.cancel = context.WithCancel(context.Background())
		s.listeners = make(map[net.Listener]struct{})
		s.conns = make(map[*conn]struct{})
	}
}

// Serve accepts connections on ln, each served on a goroutine of its own,
// until Shutdown or Close; it then returns http.ErrServerClosed, as it does
// when either ran before Serve. ln is closed on return.
func (s *Server) Serve(ln net.Listener) error {
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	s.mu.Lock()
	s.initLocked()
	if s.closing.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	h := s.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// Out of descriptors and the like: wait and retry, as http.Server does.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		if c := s.track(nc, h); c != nil {
			go c.serve()
		}
	}
}

// track registers a new connection, or closes it when the server is closing.
func (s *Server) track(nc net.Conn, h http.Handler) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		nc.Close()
		return nil
	}
	c := &conn{s: s, nc: nc, h: h}
	c.ctx, c.cancel = context.WithCancel(s.ctx)
	s.conns[c] = struct{}{}
	return c
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown stops accepting, closes the connections waiting for a request,
// and lets each busy one finish its request — whose reply then says
// Connection: close — until none is left or ctx ends. It returns ctx's
// error in that case, else the error closing the listeners.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.mu.Lock()
	s.initLocked()
	err := s.closeListenersLocked()
	s.mu.Unlock()
	for wait := time.Millisecond; !s.closeIdle(); wait = min(2*wait, 500*time.Millisecond) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
	return err
}

// closeIdle closes the connections waiting for a request and reports
// whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(idle, closed) {
			c.nc.Close()
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

// Close closes the listeners and every connection at once, and cancels the
// context of every request still running.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.initLocked()
	err := s.closeListenersLocked()
	s.cancel()
	for c := range s.conns {
		c.nc.Close()
		delete(s.conns, c)
	}
	return err
}

func (s *Server) closeListenersLocked() error {
	var err error
	for ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
		delete(s.listeners, ln)
	}
	return err
}

// A connection is idle while it waits for a request — Shutdown may close it
// then — and active from a request's first bytes to the end of its reply.
const (
	idle int32 = iota
	active
	closed
)

type conn struct {
	s      *Server
	nc     net.Conn
	h      http.Handler
	ctx    context.Context
	cancel context.CancelFunc
	state  atomic.Int32

	r    connReader
	br   *bufio.Reader
	bw   *bufio.Writer
	w    response
	body body
	// afterPOST: the last request was a POST, after which http.Server skips
	// stray CR and LF bytes before the next request line.
	afterPOST bool
	remote    string
	date      []byte // the Date value, rendered once a second
	dateSec   int64
}

var (
	readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4<<10) }}
	writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 4<<10) }}
)

func (c *conn) serve() {
	c.remote = c.nc.RemoteAddr().String()
	c.r.nc = c.nc
	c.br = readers.Get().(*bufio.Reader)
	c.br.Reset(&c.r)
	c.bw = writers.Get().(*bufio.Writer)
	c.bw.Reset(c.nc)
	c.w.c, c.body.c = c, c
	c.w.buf = make([]byte, 0, holdBytes)
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			log.Printf("httpd: panic serving %s: %v\n%s", c.remote, v, debug.Stack())
		}
		c.cancel()
		c.nc.Close()
		c.s.forget(c)
		c.br.Reset(nil)
		readers.Put(c.br)
		c.bw.Reset(nil)
		writers.Put(c.bw)
	}()
	// http.Server waits for the first byte of the first request with the
	// head cap already counting, and for four bytes of any later one before
	// the cap starts counting again.
	c.r.remain = maxHeadBytes
	for peek := 1; ; peek = 4 {
		if _, err := c.br.Peek(peek); err != nil {
			return
		}
		if !c.state.CompareAndSwap(idle, active) {
			return // Shutdown closed it
		}
		if peek == 4 {
			c.r.remain = maxHeadBytes
		}
		if !c.serveOne() {
			return
		}
		c.state.Store(idle)
		if c.s.closing.Load() {
			return
		}
	}
}

// serveOne reads one request and answers it, and reports whether the
// connection stays open for another.
func (c *conn) serveOne() bool {
	if c.afterPOST {
		b, _ := c.br.Peek(4)
		n := 0
		for n < len(b) && (b[n] == '\r' || b[n] == '\n') {
			n++
		}
		c.br.Discard(n)
	}
	pending, _ := c.br.Peek(c.br.Buffered())
	c.r.head = append(c.r.head[:0], pending...)
	c.r.tap = true
	req, err := http.ReadRequest(c.br)
	c.r.tap = false
	if err != nil {
		msg := err.Error()
		switch {
		case c.r.remain <= 0:
			const status = "431 Request Header Fields Too Large"
			c.refuse(status, status)
			c.linger()
		case strings.HasPrefix(msg, "unsupported transfer encoding: "), strings.HasPrefix(msg, "too many transfer encodings: "):
			// The two messages of net/http's unexported unsupportedTEError.
			c.refuse("501 Not Implemented", "Unsupported transfer encoding")
		case !readError(err):
			c.refuse("400 Bad Request", "400 Bad Request")
		}
		return false
	}
	if status := check(req, c.r.head[:len(c.r.head)-c.br.Buffered()]); status != "" {
		c.refuse(status, status)
		return false
	}
	if cap(c.r.head) > 64<<10 {
		c.r.head = nil
	}
	c.r.remain = math.MaxInt64
	c.afterPOST = req.Method == "POST"
	req.RemoteAddr = c.remote
	*req = *req.WithContext(c.ctx) // inlined: the copy stays on the stack

	expect := ""
	if v := req.Header["Expect"]; len(v) > 0 {
		expect = v[0]
	}
	c.body = body{c: c, src: req.Body}
	if hasToken(expect, "100-continue") {
		c.body.expect = req.ProtoAtLeast(1, 1) && req.ContentLength != 0
		c.body.cont = c.body.expect
	}
	if req.Body != http.NoBody {
		req.Body = &c.body
	}
	w := &c.w
	w.reset(req)
	switch {
	case expect != "" && !hasToken(expect, "100-continue"):
		w.header.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
	case req.RequestURI == "*" && req.Method == "OPTIONS":
		// http.Server answers this itself, reading at most 4 KiB of body.
		w.header.Set("Content-Length", "0")
		if req.ContentLength != 0 {
			if n, _ := io.CopyN(io.Discard, req.Body, 4<<10+1); n > 4<<10 {
				w.header.Set("Connection", "close")
				w.linger = true
			}
		}
	default:
		c.h.ServeHTTP(w, req)
	}
	w.finish()
	if w.closeAfter {
		if w.linger {
			c.linger()
		}
		return false
	}
	return true
}

// linger half-closes the connection and reads what the client still sends,
// for up to lingerTime, so the reply is not lost to the reset that closing
// on unread input sends.
func (c *conn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerTime))
	io.Copy(io.Discard, c.nc)
}

// dateValue is the Date header value for a reply sent now.
func (c *conn) dateValue() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
		c.dateSec = sec
	}
	return c.date
}

// connReader is the connection as its bufio.Reader sees it. It ends at EOF
// once remain bytes have been read, which caps a request head the way
// http.Server's reader does, and while tap is set it keeps what it reads in
// head — the Host lines http.ReadRequest deletes are checked from there.
type connReader struct {
	nc     net.Conn
	remain int64
	tap    bool
	head   []byte
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.nc.Read(p)
	r.remain -= int64(n)
	if r.tap {
		r.head = append(r.head, p[:n]...)
	}
	return n, err
}

// refuse sends what http.Server sends to a request it will not serve; the
// connection then closes.
func (c *conn) refuse(status, body string) {
	io.WriteString(c.nc, "HTTP/1.1 "+status+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+body)
}

// readError reports whether err is the connection failing or ending, which
// http.Server answers with nothing.
func readError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// check makes the checks http.Server makes of a parsed request that
// http.ReadRequest does not — the protocol version, the Host header, header
// names — and returns the status it refuses one with, or "". head is the
// request head as read.
func check(req *http.Request, head []byte) string {
	if req.ProtoMajor != 1 && !(req.ProtoMajor == 2 && req.ProtoMinor == 0 && req.Method == "PRI" && req.RequestURI == "*") {
		return "505 HTTP Version Not Supported: unsupported protocol version"
	}
	// ReadRequest has deleted the Host header. A request line without an
	// authority and a non-empty Host left its value in req.Host; otherwise
	// the line is looked for in the head again.
	host, haveHost := req.Host, true
	if req.URL.Host != "" || host == "" {
		host, haveHost = hostLine(head)
	}
	h2 := req.Method == "PRI" && len(req.Header) == 0 && !haveHost && req.URL.Path == "*" && req.Proto == "HTTP/2.0"
	if req.ProtoAtLeast(1, 1) && !haveHost && !h2 && req.Method != "CONNECT" {
		return "400 Bad Request: missing required Host header"
	}
	if haveHost && !validHost(host) {
		return "400 Bad Request: malformed Host header"
	}
	for k := range req.Header {
		if strings.IndexByte(k, ' ') >= 0 { // the one non-token byte ReadRequest lets through
			return "400 Bad Request: invalid header name"
		}
	}
	return ""
}

// hostLine parses head again for its Host header line.
func hostLine(head []byte) (string, bool) {
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(head)))
	if _, err := tp.ReadLine(); err != nil {
		return "", false
	}
	h, _ := tp.ReadMIMEHeader()
	if v := h["Host"]; len(v) > 0 {
		return v[0], true
	}
	return "", false
}

// validHost is httpguts.ValidHostHeader: every byte one that a host, a
// port, an IPv6 literal or its zone may hold.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) >= 0) {
			return false
		}
	}
	return true
}

// hasToken is net/http's: whether token, in ASCII lower case, appears in v
// case-insensitively between token boundaries (start, end, space, comma,
// tab).
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !tokenBoundary(v[sp-1]) || sp+len(token) < len(v) && !tokenBoundary(v[sp+len(token)]) {
			continue
		}
		match := true
		for i := 0; i < len(token) && match; i++ {
			b := v[sp+i]
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			match = b == token[i]
		}
		if match {
			return true
		}
	}
	return false
}

func tokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }
