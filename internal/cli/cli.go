// Package cli is the contract every binary under cmd/ keeps: one usage
// layout (synopsis, usage line, flag list), exit status 2 with usage for a
// flag or argument the tool does not take, exit status 1 with the tool's
// name for every other failure, and, for the three serving binaries, one
// lifecycle: an optional net/http/pprof listener of its own, then listen,
// serve through internal/httpd's connection loop, wait for a signal, drain.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which no serving port of this module uses
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/g-rpqs/rlc-go/internal/httpd"
)

// PprofUsage is the help text of the serving binaries' -pprof flag.
const PprofUsage = "serve net/http/pprof at /debug/pprof/ on this address, on a listener of its own (empty = off)"

// tool is the running binary's name, the first word of the synopsis Parse
// was given; Fatalf prefixes it.
var tool string

// Parse sets flag.Usage to print synopsis, "usage: TOOL usageLine", the flag
// list and epilogue, then parses the command line. A positional argument
// prints usage and exits with status 2, as an unknown flag does.
func Parse(synopsis, usageLine, epilogue string) {
	tool, _, _ = strings.Cut(synopsis, " ")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "%s\n\nusage: %s %s\n\nflags:\n", synopsis, tool, usageLine)
		flag.PrintDefaults()
		fmt.Fprint(out, epilogue)
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n\n", tool, flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
}

// Fatalf prints the tool's name and the message on stderr and exits with
// status 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}

// Serve runs a serving binary until ctx ends or stopped delivers. It serves
// /debug/pprof/ on pprofAddr when that is set, on a listener of its own that
// lives as long as the process, then listens on addr, serves h there through
// httpd and prints "serving on ADDR banner". When it stops waiting it
// reports an error from stopped on stderr, restores the default action of
// SIGINT and SIGTERM (so a second one kills a drain that hangs), stops
// accepting, waits up to drain for in-flight requests and prints "shut down
// cleanly". It returns the error stopped delivered, nil when ctx ended. A
// nil stopped never delivers. Failing to listen, serve or drain is fatal.
func Serve(ctx context.Context, addr, pprofAddr string, drain time.Duration, h http.Handler, banner string, stopped <-chan error) error {
	if pprofAddr != "" {
		ln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			Fatalf("pprof: %v", err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
		// Nothing stops this listener or waits for it: the process exiting does.
		go func() { _ = (&httpd.Server{Handler: http.DefaultServeMux}).Serve(ln) }()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		Fatalf("listen: %v", err)
	}
	hs := &httpd.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Printf("serving on %s %s\n", ln.Addr(), banner)

	var stop error
	select {
	case err := <-done:
		Fatalf("serve: %v", err)
	case stop = <-stopped:
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, stop)
	case <-ctx.Done():
	}
	signal.Reset(os.Interrupt, syscall.SIGTERM)
	fmt.Println("draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		Fatalf("serve: %v", err)
	}
	fmt.Println("shut down cleanly")
	return stop
}
