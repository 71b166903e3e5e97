package router

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

const (
	// maxIdleConns caps the keep-alive connections a backend parks between
	// requests; a connection released past the cap is closed.
	maxIdleConns = 128
	// dialTimeout bounds one connect to a backend.
	dialTimeout = 2 * time.Second
	// maxHeadBytes and maxReplyBytes bound what one reply may make the
	// router buffer: status line plus headers, and the body.
	maxHeadBytes  = 64 << 10
	maxReplyBytes = 64 << 20
	// keepScratch is the largest request or body buffer a connection keeps
	// across requests; one large /batch must not pin its size for good.
	keepScratch = 64 << 10
	// maxChunkLine is the longest chunk-size line accepted, CRLF excluded.
	// net/http's chunked reader tolerates 16 bytes of framing per chunk and
	// fails a body whose excess beyond that adds up; lines this short never
	// add any, so this reader cannot accept a body that one refuses.
	maxChunkLine = 14
)

// errHedge reports that no reply byte arrived within the wait. The exchange
// is intact — nothing was consumed — and the connection is still in flight.
var errHedge = errors.New("router: no reply within the hedge delay")

// errRaceOver fails an attempt that got its connection after the race it
// belonged to had been decided.
var errRaceOver = errors.New("router: race already decided")

// protocolError is a reply this client refuses to interpret. The
// connection that carried it is closed, never pooled: whatever follows on
// it cannot be trusted to line up with the next request.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return "router: upstream protocol: " + e.msg }

var (
	errStatusLine   = &protocolError{"malformed status line (want HTTP/1.1 and a three-digit status)"}
	errBodiless     = &protocolError{"1xx, 204 and 304 replies are not relayed"}
	errHeaderLine   = &protocolError{"malformed header line"}
	errHeadTooLarge = &protocolError{"reply head exceeds 64 KiB or a line exceeds the read buffer"}
	errFraming      = &protocolError{"body needs exactly one framing: one Content-Length, or Transfer-Encoding: chunked"}
	errChunk        = &protocolError{"malformed chunked body (trailers are not accepted)"}
	errBodyTooLarge = &protocolError{"reply body exceeds 64 MiB"}
)

// The reply headers relay copies to the client, in reply.hdr order.
const (
	hContentType = iota
	hEpoch
	hSeq
	numRelayed
)

var relayedNames = [numRelayed]string{"Content-Type", server.HeaderEpoch, server.HeaderSeq}

// reply is one parsed backend response. hdr and body are the connection's
// own scratch: valid until the connection is released or closed.
type reply struct {
	status int
	// hdr holds the first value of each relayed header, as Header.Get
	// would return it; seen says a first value exists, even an empty one.
	hdr  [numRelayed][]byte
	seen [numRelayed]bool
	body []byte
	// close is the backend's "Connection: close": the reply is good, the
	// connection is not to be reused.
	close bool
}

// message is the request the router repeats to a backend.
type message struct {
	method, path, query, contentType string
	body                             []byte
	// idempotent requests (reads) may be sent again after a failure;
	// others only when no byte of them left this process.
	idempotent bool
}

// conn is one keep-alive HTTP/1.1 connection to a backend. One goroutine
// uses it at a time; only close may be called from another.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte // request scratch: head and body leave in one Write
	rep reply
	// crlf is readChunks' scratch for the CRLF after a chunk: an array on
	// its stack would escape through io.ReadFull, one allocation a chunk.
	crlf [2]byte
	// reused says the connection has carried a complete exchange before,
	// so a failure before the first reply byte may only mean the backend
	// closed it while it sat idle.
	reused bool
}

func (c *conn) close() { _ = c.nc.Close() }

// appendRequest renders m into the connection's scratch, which reaches the
// size of the largest request once.
func (c *conn) appendRequest(b *backend, m *message) {
	o := c.out[:0]
	o = append(o, m.method...)
	o = append(o, ' ')
	o = append(o, b.prefix...)
	o = append(o, m.path...)
	if m.query != "" {
		o = append(o, '?')
		o = append(o, m.query...)
	}
	o = append(o, b.hostLines...)
	if m.contentType != "" {
		o = append(o, "Content-Type: "...)
		o = append(o, m.contentType...)
		o = append(o, "\r\n"...)
	}
	if m.body != nil || m.method != "GET" {
		o = append(o, "Content-Length: "...)
		o = strconv.AppendInt(o, int64(len(m.body)), 10)
		o = append(o, "\r\n"...)
	}
	o = append(o, "\r\n"...)
	o = append(o, m.body...)
	c.out = o
}

// await blocks until the first byte of the reply is buffered, for at most
// wait (zero: no limit). It consumes nothing, so on errHedge the exchange
// can still be completed later — by this goroutine or another.
func (c *conn) await(wait time.Duration) error {
	if wait <= 0 {
		_, err := c.br.Peek(1)
		return err
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(wait))
	_, err := c.br.Peek(1)
	_ = c.nc.SetReadDeadline(time.Time{})
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errHedge
	}
	return err
}

// line returns the next reply line without its terminator (CRLF or a bare
// LF, as net/http's reader accepts); the slice is only valid until the next
// read.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n') // bufio refill: one Read on the socket into the connection's buffer
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, errHeadTooLarge
		}
		return nil, err
	}
	l = l[:len(l)-1]
	if n := len(l); n > 0 && l[n-1] == '\r' {
		l = l[:n-1]
	}
	return l, nil
}

// readReply parses one response into c.rep. It accepts a subset of what
// http.ReadResponse accepts (FuzzReadReply holds it to that): HTTP/1.1, a
// status that carries a body, unfolded header lines with token names, and a
// body framed by exactly one Content-Length or by chunks without trailers.
// Anything else is a *protocolError.
func (c *conn) readReply() error {
	rep := &c.rep
	rep.status, rep.close, rep.body = 0, false, rep.body[:0]
	rep.seen = [numRelayed]bool{}
	for i := range rep.hdr {
		rep.hdr[i] = rep.hdr[i][:0]
	}

	l, err := c.line()
	if err != nil {
		return err
	}
	if len(l) < 12 || string(l[:9]) != "HTTP/1.1 " || (len(l) > 12 && l[12] != ' ') {
		return errStatusLine
	}
	for _, d := range l[9:12] {
		if d < '0' || d > '9' {
			return errStatusLine
		}
		rep.status = rep.status*10 + int(d-'0')
	}
	if rep.status < 200 || rep.status == 204 || rep.status == 304 {
		return errBodiless
	}

	length, chunked := -1, false
	for head := len(l); ; {
		if l, err = c.line(); err != nil {
			return err
		}
		if len(l) == 0 {
			break
		}
		if head += len(l); head > maxHeadBytes {
			return errHeadTooLarge
		}
		colon := 0
		for colon < len(l) && tokenByte[l[colon]] {
			colon++
		}
		if colon == 0 || colon == len(l) || l[colon] != ':' {
			return errHeaderLine // a name that is no token: empty, spaced, or a folded line's leading blank
		}
		name, val := l[:colon], bytes.Trim(l[colon+1:], " \t")
		for _, b := range val {
			if b < ' ' && b != '\t' || b == 0x7f {
				return errHeaderLine
			}
		}
		switch {
		case asciiEqualFold(name, "Content-Length"):
			if length >= 0 || len(val) == 0 || len(val) > 9 {
				return errFraming
			}
			length = 0
			for _, d := range val {
				if d < '0' || d > '9' {
					return errFraming
				}
				length = length*10 + int(d-'0')
			}
		case asciiEqualFold(name, "Transfer-Encoding"):
			if chunked || !asciiEqualFold(val, "chunked") {
				return errFraming
			}
			chunked = true
		case asciiEqualFold(name, "Connection"):
			for len(val) > 0 {
				end := 0
				for end < len(val) && val[end] != ',' {
					end++
				}
				if asciiEqualFold(bytes.Trim(val[:end], " \t"), "close") {
					rep.close = true
				}
				val = val[min(end+1, len(val)):]
			}
		default:
			for i, relayed := range relayedNames {
				if !rep.seen[i] && asciiEqualFold(name, relayed) {
					rep.seen[i] = true
					rep.hdr[i] = append(rep.hdr[i], val...) // header scratch: a few dozen bytes, grown once
				}
			}
		}
	}

	switch {
	case chunked == (length >= 0):
		return errFraming // both, or neither: a close-delimited body
	case chunked:
		return c.readChunks()
	default:
		return c.readBody(length)
	}
}

// readBody appends n body bytes to c.rep.body. The buffer grows as bytes
// arrive, not ahead of them, so a lying length costs no memory.
func (c *conn) readBody(n int) error {
	body := c.rep.body
	if n > maxReplyBytes-len(body) {
		return errBodyTooLarge
	}
	var err error
	for n > 0 && err == nil {
		var got int
		step := min(n, max(c.br.Buffered(), 4096))
		body = slices.Grow(body, step)                               // body scratch: reaches the size of the largest reply once
		got, err = io.ReadFull(c.br, body[len(body):len(body)+step]) // socket read into the scratch above
		body = body[:len(body)+got]
		n -= got
	}
	c.rep.body = body
	return err
}

// readChunks reads a chunked body: size lines of hex digits, optionally
// followed by ";extension", each ended by CRLF exactly.
func (c *conn) readChunks() error {
	for {
		l, err := c.br.ReadSlice('\n') // bufio refill
		if err != nil {
			if err == bufio.ErrBufferFull {
				return errChunk
			}
			return err
		}
		if len(l) < 3 || len(l)-2 > maxChunkLine || l[len(l)-2] != '\r' {
			return errChunk
		}
		l = l[:len(l)-2]
		n, digits := 0, 0
		for ; digits < len(l); digits++ {
			d := unhex(l[digits])
			if d > 0xf {
				break
			}
			if n > maxReplyBytes>>4 {
				return errBodyTooLarge
			}
			n = n<<4 | int(d)
		}
		if digits == 0 || (digits < len(l) && l[digits] != ';') {
			return errChunk
		}
		for _, b := range l[digits:] {
			if b == '\r' {
				return errChunk // net/http takes the first CR for the line's end
			}
		}
		if n > 0 {
			if err := c.readBody(n); err != nil {
				return err
			}
		}
		if _, err := io.ReadFull(c.br, c.crlf[:]); err != nil {
			return err
		}
		if c.crlf != [2]byte{'\r', '\n'} {
			return errChunk
		}
		if n == 0 {
			return nil
		}
	}
}

// unhex is the value of a hex digit, or 0xff for any other byte.
func unhex(d byte) byte {
	switch {
	case '0' <= d && d <= '9':
		return d - '0'
	case 'a' <= d && d <= 'f':
		return d - 'a' + 10
	case 'A' <= d && d <= 'F':
		return d - 'A' + 10
	}
	return 0xff
}

// tokenByte marks the bytes of an RFC 9110 token, the alphabet of a header
// name.
var tokenByte = func() (t [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	return t
}()

// asciiEqualFold reports whether b is s up to ASCII letter case; s has no
// byte outside ASCII.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// pool is a backend's idle connections, most recently used last.
type pool struct {
	mu   sync.Mutex
	idle []*conn
}

// take pops the most recently parked connection, or nil.
func (p *pool) take() *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

// put parks c, unless maxIdleConns are parked already.
func (p *pool) put(c *conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdleConns {
		return false
	}
	p.idle = append(p.idle, c)
	return true
}

// flush closes every idle connection: one of them turned out to have been
// closed by the backend while parked, and the rest idled through the same
// restart.
func (p *pool) flush() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// release parks c for the next request after a completed exchange, unless
// the backend asked to close, bytes nobody asked for are already waiting
// (the connection is out of step), or the pool is full.
func (b *backend) release(c *conn) {
	if c.rep.close || c.br.Buffered() != 0 {
		c.close()
		return
	}
	c.reused = true
	if cap(c.out) > keepScratch {
		c.out = nil
	}
	if cap(c.rep.body) > keepScratch {
		c.rep.body = nil
	}
	if !b.pool.put(c) {
		c.close()
	}
}

// dial opens a fresh connection to b.
func (b *backend) dial() (*conn, error) {
	if b.addr == "" {
		return nil, errors.New("router: backend URL " + strconv.Quote(b.url) + " is not http://host[:port]")
	}
	b.stats.dials.Add(1)
	nc, err := net.DialTimeout("tcp", b.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// exchange sends m to b and reads the reply into the returned connection's
// rep; the caller relays it and then releases (or closes) the connection.
// With wait > 0 it gives up waiting for the first reply byte after wait and
// returns the connection, still in flight, with errHedge. A race passes
// track to learn of every connection the attempt opens; a false return
// means the race is over and the attempt stops.
//
// A pooled connection the backend closed while it sat idle fails before any
// reply byte arrives. That is retried once on a fresh connection when the
// request is idempotent, or when no byte of it left; a write whose bytes
// may have reached the leader is never sent twice.
func (b *backend) exchange(m *message, wait time.Duration, track func(*conn) bool) (*conn, error) {
	c := b.pool.take()
	for {
		var err error
		if c == nil {
			if c, err = b.dial(); err != nil {
				return nil, err
			}
		}
		if track != nil && !track(c) {
			c.close()
			return nil, errRaceOver
		}
		c.appendRequest(b, m)
		sent, err := c.nc.Write(c.out)
		if err == nil {
			err = c.await(wait)
		}
		if err == errHedge {
			return c, err
		}
		if err == nil {
			if err = c.readReply(); err == nil {
				return c, nil
			}
			// Reply bytes arrived, so the connection was live: this is the
			// backend's failure, not an idle close.
			c.close()
			var pe *protocolError
			if errors.As(err, &pe) {
				b.stats.protocolErrors.Add(1)
			}
			return nil, err
		}
		c.close()
		if !c.reused || errors.Is(err, net.ErrClosed) {
			return nil, err // never served before, or the race that owned it closed it
		}
		b.pool.flush()
		if !m.idempotent && sent > 0 {
			return nil, err
		}
		b.stats.staleRetries.Add(1)
		c = nil
	}
}
