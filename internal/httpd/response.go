package httpd

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// holdBytes is the longest body held back until the handler returns, so
// that its reply ends its head with a Content-Length and leaves with the
// head in one Write; a longer one is sent as the handler writes it. It is
// http.Server's threshold, so the framing — and for an HTTP/1.0 client
// whether the connection survives — is the same.
const holdBytes = 2 << 10

// The handler headers the head leaves out: the framing, which writeHead
// settles, and for a 304 the Content-Type too.
var (
	framing    = map[string]bool{"Content-Length": true, "Transfer-Encoding": true, "Connection": true}
	framing304 = map[string]bool{"Content-Length": true, "Transfer-Encoding": true, "Connection": true, "Content-Type": true}
)

// response is the ResponseWriter of a connection's current request. The
// status line and the handler's headers go to the connection's writer at
// WriteHeader; a body of up to holdBytes waits in buf, and writeHead ends
// the head once the framing is known.
type response struct {
	c      *conn
	req    *http.Request
	header http.Header
	buf    []byte

	status  int   // 0 until WriteHeader
	cl      int64 // the Content-Length sent, -1 for none
	written int64 // body bytes the handler wrote
	sent    bool  // the head is complete; the body follows it as written
	chunked bool
	// closeAfter: the connection closes after this reply; linger: with
	// request bytes unread.
	closeAfter, linger bool

	// From the request, before the handler ran.
	wants10KeepAlive, wantsClose bool
	// From the handler's headers at WriteHeader.
	hasType, hasEncoding, hasDate bool
	connection                    string
}

func (w *response) reset(req *http.Request) {
	h := w.header
	if h == nil {
		h = make(http.Header)
	}
	clear(h)
	connection := ""
	if v := req.Header["Connection"]; len(v) > 0 {
		connection = v[0]
	}
	*w = response{
		c: w.c, req: req, header: h, buf: w.buf[:0], cl: -1,
		wants10KeepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(connection, "keep-alive"),
		wantsClose:       req.Close || hasToken(connection, "close"),
	}
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader puts the status line and the handler's headers, less the
// framing, in the connection's writer; later changes to the header map
// have no effect.
func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.status = code
	w.c.body.cont = false
	h := w.header
	if v := h.Get("Content-Length"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			w.cl = n
		}
	}
	_, w.hasType = h["Content-Type"]
	w.hasEncoding = h.Get("Content-Encoding") != ""
	_, w.hasDate = h["Date"]
	w.connection = h.Get("Connection")

	bw := w.c.bw
	if w.req.ProtoAtLeast(1, 1) {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(code), 10))
	text := http.StatusText(code)
	if text == "" {
		text = "status code " + strconv.Itoa(code)
	}
	bw.WriteByte(' ')
	bw.WriteString(text)
	bw.WriteString("\r\n")
	skip := framing
	if code == http.StatusNotModified {
		skip = framing304
	}
	h.WriteSubset(bw, skip)
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.cl >= 0 && w.written > w.cl {
		return 0, http.ErrContentLength
	}
	if w.sent {
		return w.writeBody(p)
	}
	if len(w.buf)+len(p) <= holdBytes {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	// The body outgrows the buffer: fill it, as a bufio.Writer would, so the
	// head is settled on its first holdBytes, then send what there is.
	n := copy(w.buf[len(w.buf):holdBytes], p)
	w.buf = w.buf[:len(w.buf)+n]
	w.writeHead(false)
	if _, err := w.writeBody(w.buf); err != nil {
		return 0, err
	}
	w.buf = w.buf[:0]
	m, err := w.writeBody(p[n:])
	return n + m, err
}

// writeHead ends the head begun at WriteHeader, with what http.Server
// decides when the head leaves: final says the handler has returned and
// buf is its whole body. The drain happens here, before the head, so a
// body too long to drain can still make the reply say Connection: close.
func (w *response) writeHead(final bool) {
	w.sent = true
	req, b := w.req, &w.c.body
	isHEAD := req.Method == "HEAD"
	allowed := bodyAllowed(w.status)
	if final && w.cl < 0 && allowed && (!isHEAD || len(w.buf) > 0) {
		w.cl = int64(len(w.buf))
	}
	keepAlive10 := w.wants10KeepAlive && (isHEAD || w.cl >= 0 || !allowed)
	if !keepAlive10 && (!req.ProtoAtLeast(1, 1) || w.wantsClose) || w.connection == "close" || w.c.s.closing.Load() {
		w.closeAfter = true
	}
	switch {
	case b.expect && !b.sawEOF:
		// The client may still be waiting for a 100 Continue.
		w.closeAfter = true
	case req.ContentLength != 0 && !w.closeAfter && !b.expect && !b.sawEOF:
		_, err := io.CopyN(io.Discard, b.src, maxDrainBytes+1)
		if err == nil {
			w.closeAfter, w.linger = true, true
		} else if err != io.EOF {
			w.closeAfter = true
		}
	}
	switch {
	case isHEAD || !allowed:
	case w.cl >= 0:
	case req.ProtoAtLeast(1, 1):
		w.chunked = true
	default:
		w.closeAfter = true // the body ends where the connection does
	}

	bw := w.c.bw
	if !w.hasDate {
		bw.WriteString("Date: ")
		bw.Write(w.c.dateValue())
		bw.WriteString("\r\n")
	}
	if w.cl >= 0 && allowed {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), w.cl, 10))
		bw.WriteString("\r\n")
	}
	if allowed && !w.hasType && !w.hasEncoding && len(w.buf) > 0 {
		bw.WriteString("Content-Type: ")
		bw.WriteString(http.DetectContentType(w.buf))
		bw.WriteString("\r\n")
	}
	connection := w.connection
	switch {
	case w.linger:
		connection = "close"
	case w.closeAfter && !hasToken(connection, "close"):
		connection = ""
		if req.ProtoAtLeast(1, 1) {
			connection = "close"
		}
	case keepAlive10 && connection == "":
		connection = "keep-alive"
	}
	if connection != "" {
		bw.WriteString("Connection: ")
		bw.WriteString(connection)
		bw.WriteString("\r\n")
	}
	if w.chunked {
		bw.WriteString("Transfer-Encoding: chunked\r\n")
	}
	bw.WriteString("\r\n")
}

// writeBody sends p after the head, framed; a HEAD reply's body is dropped.
func (w *response) writeBody(p []byte) (int, error) {
	if w.req.Method == "HEAD" || len(p) == 0 {
		return len(p), nil
	}
	bw := w.c.bw
	if w.chunked {
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(p)), 16))
		bw.WriteString("\r\n")
	}
	n, err := bw.Write(p)
	if w.chunked && err == nil {
		_, err = bw.WriteString("\r\n")
	}
	if err != nil {
		w.closeAfter = true
	}
	return n, err
}

// finish completes the reply after the handler returns and sends what is
// left of it.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.sent {
		w.writeHead(true)
		w.writeBody(w.buf)
	}
	bw := w.c.bw
	if w.chunked {
		bw.WriteString("0\r\n\r\n")
	}
	if bw.Flush() != nil {
		w.closeAfter = true
	}
	// A body shorter than its Content-Length leaves the client waiting for
	// the rest: the connection cannot carry another reply.
	if w.req.Method != "HEAD" && w.cl >= 0 && bodyAllowed(w.status) && w.written != w.cl {
		w.closeAfter = true
	}
}

// bodyAllowed reports whether a reply with this status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// body is the request body as the handler reads it: its first Read sends
// the 100 Continue an Expect: 100-continue asked for, its EOF is remembered
// so nothing is left to drain, and Close leaves the rest to the drain.
type body struct {
	c      *conn
	src    io.ReadCloser
	expect bool // the request asked for 100 Continue
	cont   bool // ... which has not been sent, and may still be
	sawEOF bool
	closed bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.cont {
		b.cont = false
		b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		b.c.bw.Flush()
	}
	n, err := b.src.Read(p)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

func (b *body) Close() error {
	b.closed = true
	return nil
}
