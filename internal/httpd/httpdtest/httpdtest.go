// Package httpdtest serves a handler through internal/httpd on a loopback
// port for a test, as net/http/httptest does through http.Server, so that
// endpoint suites run over the connection loop the binaries serve with.
package httpdtest

import (
	"fmt"
	"net"
	"net/http"

	"github.com/g-rpqs/rlc-go/internal/httpd"
)

// Server is a handler served on a loopback listener.
type Server struct {
	// URL is the base URL, http://127.0.0.1:port.
	URL string

	hs   *httpd.Server
	done chan struct{}
}

// NewServer serves h until Close. Like httptest.NewServer it panics when it
// cannot listen.
func NewServer(h http.Handler) *Server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("httpdtest: listen: %v", err))
	}
	s := &Server{URL: "http://" + ln.Addr().String(), hs: &httpd.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s
}

// Close closes the listener and every connection, cancels the context of
// every request still running, and returns once Serve has.
func (s *Server) Close() {
	s.hs.Close()
	<-s.done
}
