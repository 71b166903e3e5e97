// Command rlcserve is a long-running HTTP/JSON query service over an RLC
// index: serve a snapshot bundle (read into memory, hot-reloadable), or load
// a graph and build the index on the fly, then answer single and batch
// reachability queries straight from the index.
//
//	rlcserve -snapshot g.rlcs -addr :8080
//	rlcserve -graph g.graph -k 2 -addr :8080
//	curl 'localhost:8080/query?s=0&t=4&l=(l0 l1)+'
//	curl -X POST localhost:8080/batch -d '{"queries":[{"s":0,"t":4,"l":"l0 l1"}]}'
//	curl localhost:8080/stats
//
// Endpoints: GET /query (single query, any expression the CLIs accept,
// including multi-segment ones like "a+ b+"), POST /batch (many L+ queries
// fanned over the concurrent batch worker pool), POST /reload (snapshot
// mode only: hot-swap the bundle), GET /stats (per-endpoint latency
// histograms, index and build statistics, serving generation), GET
// /healthz. SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests. -pprof ADDR serves net/http/pprof on a second listener; the
// serving address never does.
//
// In snapshot mode, SIGHUP (or POST /reload) re-opens, verifies, and
// atomically swaps in the bundle at the -snapshot path with zero downtime:
// in-flight queries finish on the generation they started on. The served
// bundle lives in memory, so the file may be rewritten in place, renamed
// over or truncated while serving; a reload of a torn file is refused and
// the previous bundle keeps serving. Rebuild with `rlcbuild -o`, signal,
// done.
//
// With -mutable the server also takes writes:
//
//	rlcserve -graph g.graph -mutable -rebuild-threshold 1024 -rebuild-out g.rlcs
//	curl -X POST localhost:8080/update -d '{"s":0,"l":"l1","t":4}'
//	curl -X POST localhost:8080/update -d '{"edges":[{"s":1,"l":0,"t":2},{"s":2,"l":1,"t":3}]}'
//	curl -X POST localhost:8080/rebuild      # fold now (SIGUSR1 folds in background)
//
// Inserts append to a journal every query consults exactly — answers flip
// as soon as the update returns, no downtime, queries never block. When
// the journal passes -rebuild-threshold the server folds base + journal in
// the background, rebuilds the index, writes a fresh v2 bundle to
// -rebuild-out (when set), and hot-swaps the new epoch in while writes
// continue. /stats and /healthz
// report the epoch and journal length; the POST /rebuild reply and the
// "mutable" section of /stats say where the last fold's time went
// (union_micros, build_micros, bundle_micros, swap_micros beside the
// total). Deletions are rejected
// (deletions_unsupported); mutable servers also refuse POST /reload —
// their state evolves through folds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/profiling"
)

const synopsis = "rlcserve — serve RLC reachability queries over HTTP from hot-reloadable snapshots, with an optional write path"

func main() {
	var (
		snapshotPath = flag.String("snapshot", "", "snapshot bundle (.rlcs) to serve; enables SIGHUP / POST /reload hot swaps")
		graphPath    = flag.String("graph", "", "input graph file (index built on the fly)")
		k            = flag.Int("k", 2, "recursive k when building on the fly")
		maxIndex     = flag.Int64("max-index-bytes", 0, "size budget when building on the fly: demote low-ranked vertices to may-reach filters so the index fits (0 = unlimited; answers stay exact)")
		addr         = flag.String("addr", ":8080", "listen address")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		mutable      = flag.Bool("mutable", false, "accept edge inserts via POST /update, with background fold-and-rebuild epochs (POST /rebuild and /stats \"mutable\" split each fold into union_micros, build_micros, bundle_micros, swap_micros)")
		rebuildThr   = flag.Int("rebuild-threshold", 0, "journal length that triggers a background fold (0 = default, negative = manual folds only)")
		rebuildOut   = flag.String("rebuild-out", "", "write each fold's v2 bundle here and serve the re-opened, verified bundle (empty = serve the index built in memory)")
		pprofAddr    = flag.String("pprof", "", profiling.Usage)
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rlcserve: unexpected argument %q\n\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	if (*snapshotPath == "") == (*graphPath == "") {
		fatalf("exactly one of -snapshot or -graph is required")
	}
	if *snapshotPath != "" {
		// A bundle is served as built (folds inherit its k and budget), so a
		// build parameter here would be ignored without a word.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" || f.Name == "max-index-bytes" {
				fatalf("-k and -max-index-bytes require -graph")
			}
		})
	}

	if !*mutable && (*rebuildThr != 0 || *rebuildOut != "") {
		fatalf("-rebuild-threshold and -rebuild-out require -mutable")
	}
	opts := rlc.ServerOptions{
		Mutable:          *mutable,
		RebuildThreshold: *rebuildThr,
		RebuildPath:      *rebuildOut,
	}
	opts.OnRebuild = func(r rlc.RebuildResult) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "rlcserve: fold failed, still serving the previous epoch: %v\n", r.Err)
			return
		}
		where := "in-process"
		if r.Path != "" {
			where = r.Path
		}
		fmt.Printf("folded %d edges into epoch %d (%s, generation %d, %d carried over) in %v (union %.0f µs, build %.0f µs, bundle %.0f µs, swap %.0f µs)\n",
			r.Folded, r.Epoch, where, r.Generation, r.Journal, r.Duration.Round(time.Millisecond),
			r.UnionMicros, r.BuildMicros, r.BundleMicros, r.SwapMicros)
	}

	var srv *rlc.Server
	if *snapshotPath != "" {
		start := time.Now()
		snap, err := rlc.OpenVerifiedSnapshot(*snapshotPath)
		if err != nil {
			fatalf("open snapshot: %v", err)
		}
		fmt.Printf("snapshot %s opened in %v (%.2f MB, fingerprint %v)\n",
			*snapshotPath, time.Since(start).Round(time.Microsecond),
			float64(snap.SizeBytes())/(1024*1024), snap.Fingerprint())
		g := snap.Graph()
		fmt.Printf("graph: %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())
		printIndexStats(snap.Index())
		if !*mutable {
			// Mutable servers evolve through folds; reloading an external
			// bundle would drop journal edges, so the source stays unset.
			opts.SnapshotSource = func() (*rlc.Snapshot, error) { return rlc.OpenVerifiedSnapshot(*snapshotPath) }
		}
		srv = rlc.NewServerFromSnapshot(snap, opts)
	} else {
		g, err := rlc.LoadGraphFile(*graphPath)
		if err != nil {
			fatalf("load graph: %v", err)
		}
		fmt.Printf("graph: %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())
		start := time.Now()
		ix, st, err := rlc.BuildIndexWithStats(g, rlc.Options{K: *k, MaxIndexBytes: *maxIndex})
		if err != nil {
			fatalf("build index: %v", err)
		}
		opts.BuildStats = &st
		fmt.Printf("index built in %v\n", time.Since(start).Round(time.Millisecond))
		printIndexStats(ix)
		srv = rlc.NewServer(ix, opts)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP = hot reload in snapshot mode (the classic daemon convention);
	// ignored otherwise so a stray signal cannot kill a -graph server.
	// SIGUSR1 = background fold-and-rebuild in mutable mode.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *mutable {
				fmt.Println("SIGHUP ignored: mutable servers fold instead of reloading (SIGUSR1 / POST /rebuild)")
				continue
			}
			if *snapshotPath == "" {
				fmt.Println("SIGHUP ignored: not serving a snapshot bundle")
				continue
			}
			start := time.Now()
			gen, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rlcserve: reload failed, still serving the previous snapshot: %v\n", err)
				continue
			}
			fmt.Printf("reloaded %s in %v (generation %d)\n", *snapshotPath, time.Since(start).Round(time.Microsecond), gen)
		}
	}()
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if !*mutable {
				fmt.Println("SIGUSR1 ignored: server is not mutable")
				continue
			}
			if srv.TriggerRebuild() {
				fmt.Println("SIGUSR1: background fold-and-rebuild started")
			} else {
				fmt.Println("SIGUSR1 ignored: a fold is already running")
			}
		}
	}()

	if err := profiling.Serve(*pprofAddr); err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	endpoints := "/query /batch /reload /stats /healthz"
	if *mutable {
		endpoints = "/query /batch /update /rebuild /stats /healthz"
	}
	fmt.Printf("serving on %s (%s)\n", ln.Addr(), endpoints)

	select {
	case err := <-done:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("signal received; draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("serve: %v", err)
	}
	srv.Close()
	fmt.Println("shut down cleanly")
}

func printIndexStats(ix *rlc.Index) {
	st := ix.Stats()
	fmt.Printf("index: k=%d, %d entries (%.2f MB), %d distinct MRs\n",
		st.K, st.Entries, float64(st.SizeBytes)/(1024*1024), st.DistinctMRs)
	if ix.Tiered() {
		fmt.Printf("tiers: budget %d B: %d exact vertices, %d filtered\n",
			st.Tiers.Budget, st.Tiers.RetainedVertices, st.Tiers.DemotedVertices)
	}
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "%s\n\nusage: rlcserve (-snapshot BUNDLE | -graph FILE) [flags]\n\nflags:\n", synopsis)
	flag.PrintDefaults()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlcserve: "+format+"\n", args...)
	os.Exit(1)
}
