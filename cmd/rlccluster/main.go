// Command rlccluster runs one node of a replicated RLC serving tier: a
// leader that takes writes and publishes its journal and fold bundles, or
// a follower that replicates both into a local hot standby that answers
// reads the whole time.
//
//	rlcbuild -graph g.graph -k 2 -o g.rlcs
//	rlccluster -role leader -snapshot g.rlcs -rebuild-threshold 4096 -rebuild-out fold.rlcs -addr :8080
//	rlccluster -role follower -snapshot g.rlcs -leader http://10.0.0.1:8080 -addr :8081
//
// Both roles serve the full rlcserve query surface (GET /query, POST
// /batch, GET /stats, GET /healthz — /healthz reports role, applied
// sequence, and bundle fingerprint). The leader is the one binary that takes
// writes — a standalone writer is a leader with no followers. It accepts
// POST /update and POST /rebuild and serves the replication feed:
//
//	GET /repl/segments?from=SEQ&wait_ms=MS   length-prefixed, checksummed
//	                                         journal segments; long-polls
//	GET /repl/bundle?epoch=E                 the folded v2 bundle for E
//
// A follower long-polls the leader's journal, applies segments
// through the exact same batch-insert path a leader write takes, and —
// when the leader folds — downloads the new epoch's bundle, verifies its
// checksums and fingerprint, and hot-swaps onto it with zero read
// downtime. Followers reject client writes (403 not_leader).
//
// Inserts append to a journal every query consults exactly: answers flip as
// soon as the update returns, and queries never block. When the journal
// reaches -rebuild-threshold the leader folds base ∪ journal in the
// background: it rebuilds the index, renders and verifies the new bundle,
// writes it to -rebuild-out when set, and hot-swaps the new epoch in while
// writes continue. Deletions are refused (deletions_unsupported).
//
// Leader and follower must boot from the same seed bundle (the deployment
// contract); every replication response carries the lineage fingerprint
// and a follower refuses a leader whose lineage is not its own. A
// follower restarted from a previously adopted (post-fold) bundle names
// its lineage explicitly with -origin. -pprof ADDR serves net/http/pprof
// on a second listener; the serving address never does.
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
	"github.com/g-rpqs/rlc-go/internal/cluster"
	"github.com/g-rpqs/rlc-go/internal/httpd"
	"github.com/g-rpqs/rlc-go/internal/profiling"
)

const synopsis = "rlccluster — run a replicated RLC serving node: a journal-streaming leader or a self-healing follower"

func main() {
	var (
		role         = flag.String("role", "", "node role: \"leader\" or \"follower\"")
		snapshotPath = flag.String("snapshot", "", "seed snapshot bundle (.rlcs), written by rlcbuild -o")
		addr         = flag.String("addr", ":8080", "listen address")
		leaderURL    = flag.String("leader", "", "leader base URL (follower role)")
		origin       = flag.String("origin", "", "expected lineage fingerprint (follower role; empty = own seed fingerprint)")
		pollWait     = flag.Duration("poll-wait", 2*time.Second, "follower long-poll wait per segment request")
		rebuildThr   = flag.Int("rebuild-threshold", 0, "leader journal length that triggers a background fold (0 = default, negative = manual)")
		rebuildOut   = flag.String("rebuild-out", "", "leader also writes the bundle each fold serves here, synced and renamed into place (empty = keep folded bundles in memory only)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofAddr    = flag.String("pprof", "", profiling.Usage)
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rlccluster: unexpected argument %q\n\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	if *role != "leader" && *role != "follower" {
		fatalf("-role must be \"leader\" or \"follower\", got %q", *role)
	}
	if *snapshotPath == "" {
		fatalf("-snapshot is required (build a bundle with rlcbuild -o)")
	}
	if *role == "follower" && *leaderURL == "" {
		fatalf("-leader is required for the follower role")
	}
	if *role == "leader" && (*leaderURL != "" || *origin != "") {
		fatalf("-leader and -origin apply to the follower role only")
	}

	opts := rlc.ServerOptions{
		Mutable:          true,
		Role:             *role,
		RebuildThreshold: *rebuildThr,
		RebuildPath:      *rebuildOut,
	}
	if *role == "follower" {
		// A follower's epochs come from the leader's folds; local automatic
		// folds would fork its sequence numbering off the shared timeline.
		if *rebuildThr != 0 || *rebuildOut != "" {
			fatalf("-rebuild-threshold and -rebuild-out apply to the leader role only")
		}
		opts.RebuildThreshold = -1
	} else {
		opts.OnRebuild = func(r rlc.RebuildResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "rlccluster: fold failed, still serving the previous epoch: %v\n", r.Err)
				return
			}
			fmt.Printf("folded %d edges into epoch %d (generation %d) in %v\n",
				r.Folded, r.Epoch, r.Generation, r.Duration.Round(time.Millisecond))
		}
	}

	snap, err := rlc.OpenVerifiedSnapshot(*snapshotPath)
	if err != nil {
		fatalf("open snapshot: %v", err)
	}
	srv := rlc.NewServerFromSnapshot(snap, opts)
	rs := srv.ReplState()
	fmt.Printf("%s node at epoch %d, seq %d, lineage %s\n", *role, rs.Epoch, rs.Seq, rs.Fingerprint)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	replDone := make(chan error, 1)
	if *role == "leader" {
		handler = cluster.NewLeader(srv).Handler()
	} else {
		handler = srv.Handler()
		fol := cluster.NewFollower(srv, cluster.FollowerOptions{
			LeaderURL: *leaderURL,
			PollWait:  *pollWait,
			Origin:    *origin,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		go func() { replDone <- fol.Run(ctx) }()
	}

	if err := profiling.Serve(*pprofAddr); err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	httpSrv := &httpd.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("serving on %s (role %s)\n", ln.Addr(), *role)

	exitCode := 0
	select {
	case err := <-done:
		fatalf("serve: %v", err)
	case err := <-replDone:
		// Run only returns before shutdown on a permanent divergence; stop
		// serving rather than keep answering from a replica that can no
		// longer follow its leader.
		fmt.Fprintf(os.Stderr, "rlccluster: replication stopped: %v\n", err)
		exitCode = 1
	case <-ctx.Done():
	}
	stop()
	fmt.Println("draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("serve: %v", err)
	}
	srv.Close()
	fmt.Println("shut down cleanly")
	os.Exit(exitCode)
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "%s\n\nusage: rlccluster -role (leader|follower) -snapshot BUNDLE [flags]\n\nflags:\n", synopsis)
	flag.PrintDefaults()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlccluster: "+format+"\n", args...)
	os.Exit(1)
}
