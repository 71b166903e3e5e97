package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

// HeaderOrigin carries the cluster's lineage identity — the compact
// fingerprint of the base graph the leader started from. It never changes
// for the life of the leader process, unlike the serving fingerprint
// (which moves with every fold), so a follower can pin it at first contact
// and refuse any later response from a different lineage.
const HeaderOrigin = "X-Rlc-Origin"

// Leader serves a mutable server's endpoints plus the replication feed.
// Client traffic (queries, updates, admin) passes through to the wrapped
// server untouched; /repl/segments and /repl/bundle expose the journal
// stream and fold bundles to followers.
type Leader struct {
	srv    *server.Server
	origin string
	mux    *http.ServeMux

	// pollInterval paces the segments long-poll re-check; tests shorten it.
	pollInterval time.Duration
}

// maxPollWait caps a follower-requested long-poll so a stuck client cannot
// park a handler goroutine indefinitely.
const maxPollWait = 30 * time.Second

// NewLeader wraps srv (which must be mutable) with the replication
// endpoints. The lineage origin is fixed here, from the fingerprint of the
// base the leader is serving at startup.
func NewLeader(srv *server.Server) *Leader {
	l := &Leader{
		srv:          srv,
		origin:       srv.ReplState().Fingerprint,
		pollInterval: 5 * time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/segments", l.handleSegments)
	mux.HandleFunc("GET /repl/bundle", l.handleBundle)
	mux.Handle("/", srv.Handler())
	l.mux = mux
	return l
}

// Handler returns the combined handler: replication endpoints over the
// wrapped server's full client surface.
func (l *Leader) Handler() http.Handler { return l.mux }

// Origin returns the leader's lineage identity.
func (l *Leader) Origin() string { return l.origin }

// handshake stamps the replication coordinate headers every repl response
// carries, success or failure — a failed poll still tells the follower
// where the leader is, which is what drives bundle cutover.
func (l *Leader) handshake(w http.ResponseWriter, rs server.ReplState) {
	h := w.Header()
	h.Set(HeaderOrigin, l.origin)
	h.Set(server.HeaderEpoch, strconv.FormatUint(rs.Epoch, 10))
	h.Set(server.HeaderSeq, strconv.FormatUint(rs.Seq, 10))
	h.Set(server.HeaderSeqBase, strconv.FormatUint(rs.SeqBase, 10))
	h.Set(server.HeaderFingerprint, rs.Fingerprint)
}

// replError answers a replication request with the machine-readable code
// of the underlying failure; followers branch on the code, not the text.
func replError(w http.ResponseWriter, err error) {
	code := server.ErrorCode(err)
	status := http.StatusInternalServerError
	switch code {
	case "behind_bundle":
		// Gone: the requested range no longer exists as segments. The
		// follower must cut over via the bundle endpoint.
		status = http.StatusGone
	case "foreign_log", "epoch_gone":
		status = http.StatusConflict
	case "server_closed":
		status = http.StatusServiceUnavailable
	case "immutable":
		status = http.StatusNotImplemented
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "code": code})
}

// badRequest rejects a malformed replication request (unparseable query
// parameters) before touching the server.
func badRequest(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": "bad_request"})
}

// handleSegments is the journal feed: the journal from global sequence
// `from` to the end of the log, long-polling up to `wait_ms` for new
// inserts. Each check reads one published view of the journal, so a reply
// carries whole insert batches — a single-edge trickle included — within
// one poll round-trip. An empty 200 is the long-poll timeout, or a fold
// that moved the serving epoch while the poll was parked; either way the
// handshake headers carry the leader's position.
func (l *Leader) handleSegments(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		badRequest(w, "segments: bad or missing from parameter: "+err.Error())
		return
	}
	var wait time.Duration
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			badRequest(w, "segments: bad wait_ms parameter")
			return
		}
		wait = time.Duration(v) * time.Millisecond
		if wait > maxPollWait {
			wait = maxPollWait
		}
	}
	deadline := time.Now().Add(wait)
	epoch := l.srv.ReplState().Epoch
	tick := time.NewTicker(l.pollInterval)
	defer tick.Stop()
	for {
		edges, rs, err := l.srv.ExportJournal(from)
		if err != nil {
			l.handshake(w, rs)
			replError(w, err)
			return
		}
		// A fold that lands while the poll is parked ends it at once: the
		// empty reply's handshake carries the new epoch, which is what sends
		// the follower to the bundle, so a cutover does not wait out the poll.
		if len(edges) > 0 || rs.Epoch != epoch || !time.Now().Before(deadline) {
			l.handshake(w, rs)
			w.Header().Set("Content-Type", "application/octet-stream")
			_ = WriteSegments(w, from, edges)
			return
		}
		select {
		case <-r.Context().Done():
			l.handshake(w, rs)
			w.Header().Set("Content-Type", "application/octet-stream")
			return
		case <-tick.C:
		}
	}
}

// handleBundle ships the folded bundle serving the requested epoch as raw
// .rlcs bytes. The epoch must match the serving epoch exactly: a fold
// racing the request fails it with epoch_gone and the current coordinates
// in the handshake, and the follower retries against the newer epoch.
func (l *Leader) handleBundle(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		badRequest(w, "bundle: bad or missing epoch parameter: "+err.Error())
		return
	}
	rs, bundle, err := l.srv.Bundle(epoch)
	l.handshake(w, rs)
	if err != nil {
		replError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(bundle)))
	_, _ = w.Write(bundle)
}
