// Command rlcrouter fronts a replicated RLC cluster with an epoch-pinned
// HTTP router: reads fan out over healthy followers, writes forward to
// the leader, and every response carries a consistency token that makes
// the whole tier read-monotone and read-your-writes for clients that
// echo it.
//
//	rlcrouter -leader http://10.0.0.1:8080 \
//	          -followers http://10.0.0.2:8081,http://10.0.0.3:8081 \
//	          -addr :8090
//	curl 'localhost:8090/query?s=0&t=4&l=l0+'            # response sets X-Rlc-Pin
//	curl -H 'X-Rlc-Pin: 3:1024' 'localhost:8090/query?…' # routed at-or-past the pin
//
// A background poller tracks each backend's /healthz (role, applied
// sequence, epoch); a request pinned at (epoch, seq) — via the X-Rlc-Pin
// header or pin= parameter — is only routed to replicas at or past seq,
// with the leader as the always-consistent fallback. Slow reads are
// hedged to a second eligible replica after -hedge-delay; writes are
// never hedged. Backends are reached over pooled keep-alive HTTP/1.1
// connections, so -leader and -followers take plain http:// URLs. GET
// /healthz reports the router's live view of every backend; GET /stats
// counts hedges fired and won, failed attempts, stale-connection retries,
// dials, leader fallbacks and protocol errors, and the replies each backend
// served. -pprof ADDR serves net/http/pprof on a second listener; the
// serving address never does.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/g-rpqs/rlc-go/internal/cli"
	"github.com/g-rpqs/rlc-go/internal/router"
)

const synopsis = "rlcrouter — epoch-pinned router for a replicated RLC cluster: health-aware read fan-out, hedged tail latency, monotone consistency tokens"

// endpoints closes the -h output.
const endpoints = `
endpoints: GET /query, POST /batch (routed reads), POST /update, POST /rebuild
(forwarded to the leader), GET /healthz (the router's view of every backend),
GET /stats (hedges fired and won, failed attempts, stale-connection retries,
dials, leader fallbacks, protocol errors, replies served per backend)
`

func main() {
	var (
		leaderURL    = flag.String("leader", "", "leader base URL (required)")
		followerCSV  = flag.String("followers", "", "comma-separated follower base URLs")
		addr         = flag.String("addr", ":8090", "listen address")
		healthEvery  = flag.Duration("health-interval", 250*time.Millisecond, "backend /healthz poll interval")
		hedgeDelay   = flag.Duration("hedge-delay", 25*time.Millisecond, "read hedge delay (negative = never hedge)")
		drainTimeout = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofAddr    = flag.String("pprof", "", cli.PprofUsage)
	)
	cli.Parse(synopsis, "-leader URL [flags]", endpoints)
	if *leaderURL == "" {
		cli.Fatalf("-leader is required")
	}
	var followers []string
	for _, u := range strings.Split(*followerCSV, ",") {
		if u = strings.TrimSpace(u); u != "" {
			followers = append(followers, u)
		}
	}

	rt := router.New(router.Options{
		LeaderURL:      *leaderURL,
		FollowerURLs:   followers,
		HealthInterval: *healthEvery,
		HedgeDelay:     *hedgeDelay,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Refresh(ctx)
	go rt.Run(ctx)

	cli.Serve(ctx, *addr, *pprofAddr, *drainTimeout, rt.Handler(),
		fmt.Sprintf("(leader %s, %d followers)", *leaderURL, len(followers)), nil)
}
