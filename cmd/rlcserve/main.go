// Command rlcserve is a long-running HTTP/JSON query service over an RLC
// index: it serves a snapshot bundle written by rlcbuild -o (read into
// memory, hot-reloadable) and answers single and batch reachability queries
// straight from the index.
//
//	rlcbuild -graph g.graph -k 2 -o g.rlcs
//	rlcserve -snapshot g.rlcs -addr :8080
//	curl 'localhost:8080/query?s=0&t=4&l=(l0 l1)+'
//	curl -X POST localhost:8080/batch -d '{"queries":[{"s":0,"t":4,"l":"l0 l1"}]}'
//	curl localhost:8080/stats
//
// Endpoints: GET /query (single query, any expression the CLIs accept,
// including multi-segment ones like "a+ b+"), POST /batch (many L+ queries
// fanned over the concurrent batch worker pool), POST /reload (hot-swap the
// bundle), GET /stats (per-endpoint latency histograms, index statistics,
// serving generation), GET /healthz. SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight requests. -pprof ADDR serves
// net/http/pprof on a second listener; the serving address never does.
//
// SIGHUP (or POST /reload) re-opens, verifies, and atomically swaps in the
// bundle at the -snapshot path with zero downtime: in-flight queries finish
// on the generation they started on. The served bundle lives in memory, so
// the file may be rewritten in place, renamed over or truncated while
// serving; a reload of a torn file is refused and the previous bundle keeps
// serving. Rebuild with `rlcbuild -o`, signal, done.
//
// rlcserve takes no writes: a node that does is an rlccluster leader, which
// serves the same query surface plus POST /update and POST /rebuild, with
// or without followers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/cli"
)

const synopsis = "rlcserve — serve RLC reachability queries over HTTP from hot-reloadable snapshot bundles"

func main() {
	var (
		snapshotPath = flag.String("snapshot", "", "snapshot bundle (.rlcs) to serve, written by rlcbuild -o; SIGHUP / POST /reload hot-swap it")
		addr         = flag.String("addr", ":8080", "listen address")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofAddr    = flag.String("pprof", "", cli.PprofUsage)
	)
	cli.Parse(synopsis, "-snapshot BUNDLE [flags]", "")
	if *snapshotPath == "" {
		cli.Fatalf("-snapshot is required (build a bundle with rlcbuild -o)")
	}

	start := time.Now()
	snap, err := rlc.OpenVerifiedSnapshot(*snapshotPath)
	if err != nil {
		cli.Fatalf("open snapshot: %v", err)
	}
	fmt.Printf("snapshot %s opened in %v (%.2f MB, fingerprint %v)\n",
		*snapshotPath, time.Since(start).Round(time.Microsecond),
		float64(snap.SizeBytes())/(1024*1024), snap.Fingerprint())
	g := snap.Graph()
	fmt.Printf("graph: %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())
	printIndexStats(snap.Index())
	srv := rlc.NewServerFromSnapshot(snap, rlc.ServerOptions{
		SnapshotSource: func() (*rlc.Snapshot, error) { return rlc.OpenVerifiedSnapshot(*snapshotPath) },
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP = hot reload (the classic daemon convention).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			start := time.Now()
			gen, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rlcserve: reload failed, still serving the previous snapshot: %v\n", err)
				continue
			}
			fmt.Printf("reloaded %s in %v (generation %d)\n", *snapshotPath, time.Since(start).Round(time.Microsecond), gen)
		}
	}()

	cli.Serve(ctx, *addr, *pprofAddr, *drain, srv.Handler(), "(/query /batch /reload /stats /healthz)", nil)
	srv.Close()
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
