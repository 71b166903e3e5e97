package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a closed-loop HTTP/1.1 client over one keep-alive TCP
// connection: write a pre-encoded request, read the reply, return. It
// exists because net/http's client runs two goroutines per connection and
// allocates per request, and on a two-core box the generator's own
// scheduling is then most of every latency it reports: five alternating
// pairs of point-hot runs against a one-connection http.Client with
// pre-built requests read 23-32 us here and 37-67 us there (README.md, "The
// client"). It understands what an HTTP/1.1 server sends to a keep-alive
// client: a status line, header names in any case, and a body framed by
// Content-Length or chunks. Anything else is a transport error, which
// counts as a failed request and fails the run.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
	// timeout turns a hung server into a failed request instead of a hung
	// benchmark.
	timeout time.Duration

	// Set by the last do: the headers the workloads read.
	pin, backend      []byte
	bytesIn, bytesOut int64
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), timeout: 60 * time.Second}, nil
}

func (c *conn) close() { c.c.Close() }

var (
	hdrLength   = []byte("Content-Length: ")
	hdrChunked  = []byte("Transfer-Encoding: chunked")
	hdrPin      = []byte("X-Rlc-Pin: ")
	hdrBackend  = []byte("X-Rlc-Backend: ")
	errProtocol = errors.New("malformed HTTP response")
)

// do sends req and returns the reply's status and body. The body and the
// header fields alias buffers the next do overwrites.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	c.c.SetDeadline(time.Now().Add(c.timeout))
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, err
	}
	c.bytesOut += int64(len(req))
	line, err := c.line()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, errProtocol
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, errProtocol
	}
	length, chunked := -1, false
	c.pin, c.backend = c.pin[:0], c.backend[:0]
	for {
		if line, err = c.line(); err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrLength):
			if length, err = strconv.Atoi(string(line[len(hdrLength):])); err != nil {
				return 0, nil, errProtocol
			}
		case bytes.EqualFold(line, hdrChunked):
			chunked = true
		case hasPrefixFold(line, hdrPin):
			c.pin = append(c.pin, line[len(hdrPin):]...)
		case hasPrefixFold(line, hdrBackend):
			c.backend = append(c.backend, line[len(hdrBackend):]...)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.line(); err != nil {
				return 0, nil, err
			}
			n, perr := strconv.ParseInt(string(line), 16, 32)
			if perr != nil {
				return 0, nil, errProtocol
			}
			if err = c.read(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.read(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("%w: no body framing", errProtocol)
	}
	return status, c.body, nil
}

func hasPrefixFold(line, prefix []byte) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], prefix)
}

// line reads one CRLF-terminated line, without the CRLF.
func (c *conn) line() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	c.bytesIn += int64(len(line))
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

// read appends the next n bytes to c.body.
func (c *conn) read(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(c.body, make([]byte, n)...)
	} else {
		c.body = c.body[:at+n]
	}
	_, err := io.ReadFull(c.r, c.body[at:])
	c.bytesIn += int64(n)
	return err
}

var (
	reachTrue  = []byte(`"reachable":true`)
	reachFalse = []byte(`"reachable":false`)
	reachKey   = []byte(`"reachable":`)
)

// reachable reads the answer out of a GET /query reply.
func reachable(body []byte) (answer, ok bool) {
	if bytes.Contains(body, reachTrue) {
		return true, true
	}
	return false, bytes.Contains(body, reachFalse)
}

// batchAnswers walks a POST /batch reply's results in order, calling fn
// with each slot's answer, and returns how many slots it saw. A slot that
// carries an error reads as FALSE and so fails its comparison unless FALSE
// was expected; the count check catches a truncated reply.
func batchAnswers(body []byte, fn func(i int, answer bool)) int {
	n := 0
	for {
		at := bytes.Index(body, reachKey)
		if at < 0 {
			return n
		}
		body = body[at+len(reachKey):]
		fn(n, len(body) > 0 && body[0] == 't')
		n++
	}
}

// getJSON fetches path from addr on a throwaway connection.
func getJSON(addr, path string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	status, body, err := c.do([]byte("GET " + path + " HTTP/1.1\r\nHost: rlc\r\n\r\n"))
	return status, append([]byte(nil), body...), err
}
