package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

// HeaderPin carries the client consistency token, "epoch:seq". Requests
// may also pass it as the pin= query parameter.
const HeaderPin = "X-Rlc-Pin"

// HeaderBackend reports which backend actually served a routed request —
// observability for tests and latency debugging, not part of the
// consistency contract.
const HeaderBackend = "X-Rlc-Backend"

// Options configures a Router.
type Options struct {
	// LeaderURL is the leader's base URL. Writes go here, and reads fall
	// back here when no follower satisfies the pin.
	LeaderURL string
	// FollowerURLs are the read replicas' base URLs.
	FollowerURLs []string
	// HealthInterval paces the background health poller. Zero selects 250ms.
	HealthInterval time.Duration
	// HedgeDelay is how long the first read attempt may stay unanswered
	// before the same query is hedged to a second eligible replica. Zero
	// selects 25ms; negative disables hedging.
	HedgeDelay time.Duration
}

// backendHealth mirrors the fields of the replica /healthz contract the
// router consumes (pinned by the server package's healthz shape test).
type backendHealth struct {
	Status            string `json:"status"`
	Role              string `json:"role"`
	JournalSeq        uint64 `json:"journal_seq"`
	Epoch             uint64 `json:"epoch"`
	BundleFingerprint string `json:"bundle_fingerprint"`
}

// backend is one routable replica with its last-polled health snapshot and
// its pool of upstream connections. seq is a lower bound on the replica's
// applied sequence: it was true at poll time and the true value only grows,
// so routing decisions made on it are safe (never optimistic) no matter how
// stale the poll is.
type backend struct {
	url      string
	isLeader bool
	// addr is the host:port to dial (empty when url is not plain http),
	// prefix the URL's path, and hostLines the end of the request line plus
	// the Host header, rendered once.
	addr, prefix, hostLines string
	stats                   *counters

	healthy atomic.Bool
	seq     atomic.Uint64
	epoch   atomic.Uint64

	pool   pool
	served atomic.Uint64 // replies relayed to clients
}

func newBackend(raw string, isLeader bool, stats *counters) *backend {
	b := &backend{url: strings.TrimRight(raw, "/"), isLeader: isLeader, stats: stats}
	if u, err := url.Parse(b.url); err == nil && u.Scheme == "http" && u.Host != "" {
		b.addr = u.Host
		if u.Port() == "" {
			b.addr += ":80"
		}
		b.prefix = u.EscapedPath()
		b.hostLines = " HTTP/1.1\r\nHost: " + u.Host + "\r\n"
	}
	return b
}

// counters are the router's /stats: only slow paths touch them, so a read
// that its first backend answers in time adds nothing shared to its cost
// beyond the rotation counter and that backend's own served count.
type counters struct {
	hedgesFired     atomic.Uint64 // a second backend was asked because the first was slow
	hedgesWon       atomic.Uint64 // ... and its reply was the one relayed
	attemptsFailed  atomic.Uint64 // a backend was asked and produced no usable reply
	staleRetries    atomic.Uint64 // a pooled connection was dead on reuse; request sent again
	dials           atomic.Uint64
	leaderFallbacks atomic.Uint64 // reads sent to the leader because no follower met the pin
	protocolErrors  atomic.Uint64 // replies refused by the upstream parser
}

// Router implements the epoch-pinned read fan-out; construct with New,
// serve its Handler, and feed the poller with Run (or Refresh in tests).
type Router struct {
	opts      Options
	leader    *backend
	followers []*backend
	all       []*backend
	mux       *http.ServeMux
	stats     counters

	// rr rotates the preferred follower so load spreads without tracking
	// per-backend inflight counts.
	rr atomic.Uint64
}

// New builds a router over one leader and any number of followers. Call
// Refresh (or start Run) before serving: backends are unknown-unhealthy
// until first polled, and reads fall back to the leader.
func New(opts Options) *Router {
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 250 * time.Millisecond
	}
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = 25 * time.Millisecond
	}
	r := &Router{opts: opts}
	r.leader = newBackend(opts.LeaderURL, true, &r.stats)
	r.all = append(r.all, r.leader)
	for _, u := range opts.FollowerURLs {
		b := newBackend(u, false, &r.stats)
		r.followers = append(r.followers, b)
		r.all = append(r.all, b)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /query", r.handleRead)
	mux.HandleFunc("POST /batch", r.handleBatch)
	mux.HandleFunc("POST /update", r.handleWrite)
	mux.HandleFunc("POST /rebuild", r.handleWrite)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /stats", r.handleStats)
	r.mux = mux
	return r
}

// Handler returns the router's HTTP surface: /query, /batch, /update,
// /rebuild, /healthz, /stats.
func (r *Router) Handler() http.Handler { return r.mux }

// Refresh polls every backend's /healthz once, synchronously — the unit
// the background loop repeats, exposed for startup and tests.
func (r *Router) Refresh(ctx context.Context) {
	for _, b := range r.all {
		if ctx.Err() != nil {
			return
		}
		b.poll()
	}
}

// Run drives the health poller until ctx is canceled.
func (r *Router) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		r.Refresh(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// pollTimeout is how long a backend may sit on /healthz before it counts as
// unhealthy.
const pollTimeout = 2 * time.Second

var healthzRequest = message{method: http.MethodGet, path: "/healthz", idempotent: true}

// poll asks b's /healthz over the same pooled connections client traffic
// uses, so a backend that restarted is noticed — and its dead idle
// connections dropped — within one health interval.
func (b *backend) poll() {
	c, err := b.exchange(&healthzRequest, pollTimeout, nil)
	if err != nil {
		if c != nil {
			c.close() // still waiting for a reply that is late
		}
		b.healthy.Store(false)
		return
	}
	var h backendHealth
	ok := c.rep.status == http.StatusOK && json.Unmarshal(c.rep.body, &h) == nil && h.Status == "ok"
	b.release(c)
	if !ok {
		b.healthy.Store(false)
		return
	}
	// Order matters: publish coordinates before flipping healthy, so a
	// dispatcher that sees healthy==true reads at-least-as-fresh bounds.
	b.seq.Store(h.JournalSeq)
	b.epoch.Store(h.Epoch)
	b.healthy.Store(true)
}

// pin is the parsed consistency token.
type pin struct {
	epoch, seq uint64
}

// String renders the token as "epoch:seq".
func (p pin) String() string {
	var buf [41]byte // two 20-digit numbers and the colon
	b := strconv.AppendUint(buf[:0], p.epoch, 10)
	b = append(b, ':')
	return string(strconv.AppendUint(b, p.seq, 10))
}

// parsePin reads the token from the header or, failing that, the pin=
// query parameter; a missing token is the zero pin (any replica
// qualifies). The query string is only parsed when it spells "pin="
// literally — an unpinned read, the common case, pays for neither the parse
// nor its map.
func parsePin(req *http.Request) (pin, error) {
	var tok string
	if v := req.Header[HeaderPin]; len(v) > 0 {
		tok = v[0]
	}
	if tok == "" && strings.Contains(req.URL.RawQuery, "pin=") {
		tok = req.URL.Query().Get("pin")
	}
	if tok == "" {
		return pin{}, nil
	}
	e, s, ok := strings.Cut(tok, ":")
	if !ok {
		return pin{}, fmt.Errorf("bad pin %q: want epoch:seq", tok)
	}
	epoch, err1 := strconv.ParseUint(e, 10, 64)
	seq, err2 := strconv.ParseUint(s, 10, 64)
	if err1 != nil || err2 != nil {
		return pin{}, fmt.Errorf("bad pin %q: want epoch:seq", tok)
	}
	return pin{epoch: epoch, seq: seq}, nil
}

// eligible appends to out the read backends allowed for p,
// preference-ordered: healthy followers at or past the pinned sequence
// (rotated for load spread), then the leader. The leader is always eligible
// — every token in circulation was minted from a state the leader had
// already applied, so the leader can never be behind a legitimate pin.
func (r *Router) eligible(p pin, out []*backend) []*backend {
	n := len(r.followers)
	if n > 0 {
		start := int(r.rr.Add(1)) % n
		for i := 0; i < n; i++ {
			b := r.followers[(start+i)%n]
			if b.healthy.Load() && b.seq.Load() >= p.seq {
				out = append(out, b)
			}
		}
		if len(out) == 0 {
			r.stats.leaderFallbacks.Add(1)
		}
	}
	return append(out, r.leader)
}

// relay copies a backend reply to the client, advancing the pin token: the
// response pin is the backend's (epoch, seq) when that is at least as fresh
// as the request pin, else the request pin unchanged — so the token a
// client echoes back can never move backwards through the router.
func relay(w http.ResponseWriter, rep *reply, served *backend, p pin) {
	out := p
	be, _ := strconv.ParseUint(string(rep.hdr[hEpoch]), 10, 64)
	bs, err := strconv.ParseUint(string(rep.hdr[hSeq]), 10, 64)
	if err == nil && bs >= p.seq {
		out = pin{epoch: be, seq: bs}
	}
	h := w.Header()
	for i, k := range relayedNames {
		if v := rep.hdr[i]; len(v) > 0 {
			h.Set(k, string(v))
		}
	}
	h.Set(HeaderPin, out.String())
	h.Set(HeaderBackend, served.url)
	h.Set("Content-Length", strconv.Itoa(len(rep.body)))
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
	served.served.Add(1)
}

// routerError answers a request the router itself fails, with a wire code:
// "router", or the replicas' own code for a failure they share.
func routerError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...), "code": code})
}

// race finishes a read its first backend did not answer in time (inflight
// is that exchange, still open, and cands[0] its backend) or did not answer
// at all (inflight is nil, lastErr the failure, cands what is left to try).
// Every attempt runs on its own goroutine; the first reply wins. A hedge
// fires once: a slow first backend brings in the second at once, a failed
// one brings it in and arms the hedge delay for the third. Failed attempts
// fall through to the remaining candidates, so a crashed replica costs
// latency, not an error, as long as any backend can answer.
//
// Losers are closed, not pooled: a connection abandoned with a request in
// flight would hand its late reply to whoever used it next. m and cands are
// copied because the caller's live on its stack.
func (r *Router) race(ctx context.Context, m message, inflight *conn, cands []*backend, lastErr error) (*conn, *backend, error) {
	own := append([]*backend(nil), cands...)
	var (
		mu     sync.Mutex
		open   []*conn
		over   bool
		winner *conn
	)
	track := func(c *conn) bool {
		mu.Lock()
		defer mu.Unlock()
		if !over {
			open = append(open, c)
		}
		return !over
	}
	defer func() {
		mu.Lock()
		over = true
		for _, c := range open {
			if c != winner {
				c.close()
			}
		}
		mu.Unlock()
	}()

	type result struct {
		c     *conn
		b     *backend
		hedge bool
		err   error
	}
	results := make(chan result, len(own))
	launched, pending := 0, 0
	launch := func(c *conn, hedge bool) {
		b := own[launched]
		launched++
		pending++
		go func() {
			var err error
			if c == nil {
				c, err = b.exchange(&m, 0, track)
			} else if err = c.await(0); err == nil {
				err = c.readReply()
			}
			results <- result{c, b, hedge, err}
		}()
	}

	var timerC <-chan time.Time
	if inflight != nil {
		track(inflight)
		launch(inflight, false)
		r.stats.hedgesFired.Add(1)
		launch(nil, true)
	} else {
		launch(nil, false)
		if r.opts.HedgeDelay > 0 && launched < len(own) {
			timer := time.NewTimer(r.opts.HedgeDelay)
			defer timer.Stop()
			timerC = timer.C
		}
	}
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-timerC:
			timerC = nil
			if launched < len(own) {
				r.stats.hedgesFired.Add(1)
				launch(nil, true)
			}
		case res := <-results:
			pending--
			if res.err == nil {
				if res.hedge {
					r.stats.hedgesWon.Add(1)
				}
				winner = res.c
				return res.c, res.b, nil
			}
			r.stats.attemptsFailed.Add(1)
			lastErr = res.err
			if launched < len(own) {
				launch(nil, false)
			}
		}
	}
	return nil, nil, lastErr
}

// requestMessage is what of a client's request goes on to a backend.
func requestMessage(req *http.Request, body []byte, idempotent bool) message {
	m := message{method: req.Method, path: req.URL.Path, query: req.URL.RawQuery, body: body, idempotent: idempotent}
	if ct := req.Header["Content-Type"]; len(ct) > 0 {
		m.contentType = ct[0]
	}
	return m
}

func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	r.routeRead(w, req, nil)
}

// handleBatch buffers the body (it must be replayable across hedge
// attempts) and routes like a read — batches are idempotent queries.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if body, ok := readBody(w, req); ok {
		r.routeRead(w, req, body)
	}
}

// readBody buffers the body of a request the router forwards. One past the
// replicas' own cap is refused here, with their code, before a backend
// connection is taken: forwarding it would cost the whole capped transfer
// only for the backend to refuse it.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, server.DefaultMaxBodyBytes+1))
	switch {
	case err != nil:
		routerError(w, http.StatusBadRequest, "router", "read body: %v", err)
		return nil, false
	case len(body) > server.DefaultMaxBodyBytes:
		routerError(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds %d bytes", server.DefaultMaxBodyBytes)
		return nil, false
	}
	return body, true
}

// routeRead runs the first attempt on this goroutine: send to the preferred
// backend, wait for its first reply byte for at most the hedge delay (no
// limit when the leader is the only candidate), relay. Only a slow or
// failed first attempt starts a race.
func (r *Router) routeRead(w http.ResponseWriter, req *http.Request, body []byte) {
	p, err := parsePin(req)
	if err != nil {
		routerError(w, http.StatusBadRequest, "router", "%v", err)
		return
	}
	var buf [8]*backend
	cands := r.eligible(p, buf[:0])
	m := requestMessage(req, body, true)
	var wait time.Duration
	if len(cands) > 1 && r.opts.HedgeDelay > 0 {
		wait = r.opts.HedgeDelay
	}
	b := cands[0]
	c, err := b.exchange(&m, wait, nil)
	if err != nil {
		if c == nil {
			r.stats.attemptsFailed.Add(1)
			cands = cands[1:]
		}
		if len(cands) > 0 {
			c, b, err = r.race(req.Context(), m, c, cands, err)
		}
		if err != nil {
			routerError(w, http.StatusBadGateway, "router", "no backend answered: %v", err)
			return
		}
	}
	relay(w, &c.rep, b, p)
	b.release(c)
}

// handleWrite forwards to the leader — writes are not idempotent, so they
// are never hedged, and are sent a second time only when a dead pooled
// connection took no byte of the first — and mints the client's next token
// from the leader's post-append coordinates.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	p, err := parsePin(req)
	if err != nil {
		routerError(w, http.StatusBadRequest, "router", "%v", err)
		return
	}
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	m := requestMessage(req, body, false)
	c, err := r.leader.exchange(&m, 0, nil)
	if err != nil {
		r.stats.attemptsFailed.Add(1)
		routerError(w, http.StatusBadGateway, "router", "leader: %v", err)
		return
	}
	relay(w, &c.rep, r.leader, p)
	r.leader.release(c)
}

// routerHealthz reports the router's own liveness and its live view of the
// backends.
type routerHealthz struct {
	Status   string           `json:"status"`
	Backends []backendHealthz `json:"backends"`
}

type backendHealthz struct {
	URL     string `json:"url"`
	Role    string `json:"role"`
	Healthy bool   `json:"healthy"`
	Seq     uint64 `json:"seq"`
	Epoch   uint64 `json:"epoch"`
}

func (b *backend) role() string {
	if b.isLeader {
		return "leader"
	}
	return "follower"
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := routerHealthz{Status: "ok"}
	for _, b := range r.all {
		resp.Backends = append(resp.Backends, backendHealthz{
			URL:     b.url,
			Role:    b.role(),
			Healthy: b.healthy.Load(),
			Seq:     b.seq.Load(),
			Epoch:   b.epoch.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// routerStats is GET /stats: what the slow paths did, and how many replies
// each backend supplied.
type routerStats struct {
	HedgesFired     uint64         `json:"hedges_fired"`
	HedgesWon       uint64         `json:"hedges_won"`
	AttemptsFailed  uint64         `json:"attempts_failed"`
	StaleRetries    uint64         `json:"stale_retries"`
	Dials           uint64         `json:"dials"`
	LeaderFallbacks uint64         `json:"leader_fallbacks"`
	ProtocolErrors  uint64         `json:"protocol_errors"`
	Backends        []backendStats `json:"backends"`
}

type backendStats struct {
	URL    string `json:"url"`
	Role   string `json:"role"`
	Served uint64 `json:"served"`
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := routerStats{
		HedgesFired:     r.stats.hedgesFired.Load(),
		HedgesWon:       r.stats.hedgesWon.Load(),
		AttemptsFailed:  r.stats.attemptsFailed.Load(),
		StaleRetries:    r.stats.staleRetries.Load(),
		Dials:           r.stats.dials.Load(),
		LeaderFallbacks: r.stats.leaderFallbacks.Load(),
		ProtocolErrors:  r.stats.protocolErrors.Load(),
	}
	for _, b := range r.all {
		resp.Backends = append(resp.Backends, backendStats{URL: b.url, Role: b.role(), Served: b.served.Load()})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
