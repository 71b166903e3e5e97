// Package profiling gives the serving binaries their -pprof flag: the
// net/http/pprof handlers on a listener of their own, never on the address
// that answers queries, served by the same connection loop (internal/httpd)
// as the queries, so a profile shows the serving path as it runs.
package profiling

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which no serving port of this module uses

	"github.com/g-rpqs/rlc-go/internal/httpd"
)

// Usage is the help text of the -pprof flag.
const Usage = "serve net/http/pprof at /debug/pprof/ on this address, on a listener of its own (empty = off)"

// Serve serves /debug/pprof/ on addr for the rest of the process's life and
// prints where; an empty addr serves nothing.
func Serve(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
	// Nothing stops this listener or waits for it: the process exiting does.
	go func() { _ = (&httpd.Server{Handler: http.DefaultServeMux}).Serve(ln) }()
	return nil
}
