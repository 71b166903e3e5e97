package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/httpd"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
)

// Default sizing for the zero-value Options.
const (
	// DefaultCacheEntries was the capacity of the result cache, which is
	// gone; benchmark/ sizes its warm-up by it.
	// Kept for benchmark/; leaves with ROADMAP item 2.
	DefaultCacheEntries = 1 << 16
	// DefaultRebuildThreshold is the journal length at which an update to a
	// mutable server triggers a background fold when
	// Options.RebuildThreshold is zero.
	DefaultRebuildThreshold = 1024
	// DefaultMaxBatch bounds the queries of one POST /batch request and the
	// edges of one POST /update request.
	DefaultMaxBatch = 8192
	// DefaultMaxBodyBytes caps JSON request bodies (POST /update, /batch):
	// 8 MiB holds the largest legal batch with generous headroom while
	// bounding what one connection can make the decoder buffer. Oversized
	// bodies are cut off mid-read and rejected with HTTP 413 and code
	// "body_too_large".
	DefaultMaxBodyBytes = 8 << 20
)

// Options configures a Server. The zero value serves a read-only index;
// POST /batch answers on up to GOMAXPROCS workers.
type Options struct {
	// SnapshotSource, when non-nil, produces the replacement snapshot for
	// POST /reload and Server.Reload — typically by re-opening (and
	// verifying) the bundle path the server was started from, which is
	// exactly what rlcserve wires here. When nil, reloading is disabled
	// and POST /reload answers 501. Mutable servers reject reloads
	// outright (an external bundle would silently drop journal edges);
	// they evolve through folds instead.
	SnapshotSource func() (*core.Snapshot, error)

	// Mutable enables the write path: POST /update (and UpdateBatch)
	// append edges to a per-generation delta overlay that every query
	// consults, exactly and without blocking, and folds rebuild the base
	// in the background (rlccluster -role leader).
	Mutable bool

	// RebuildThreshold is the journal length at which an update triggers
	// a background fold-and-rebuild. Zero selects
	// DefaultRebuildThreshold; negative disables automatic folds
	// (POST /rebuild and Server.Rebuild still fold on demand). Ignored
	// unless Mutable.
	RebuildThreshold int

	// RebuildPath, when non-empty, makes every fold also write the bundle
	// it serves there, to a temporary file that is synced and renamed into
	// place; when empty, the folded bundle lives in memory only. Either
	// way a fold renders its bundle once, verifies it and serves those
	// bytes. Ignored unless Mutable.
	RebuildPath string

	// OnRebuild, when non-nil, observes every completed fold — background
	// and explicit, including failed ones (Err set). It runs on the
	// folding goroutine after the swap; keep it quick.
	OnRebuild func(RebuildResult)

	// Role names this server's replication role — "leader", "follower",
	// or "" (reported as "standalone") — in /healthz and the replication
	// handshake. A follower rejects client-originated writes over HTTP:
	// POST /update and /rebuild answer 403 with code "not_leader", because
	// its graph must evolve only through the replication apply path
	// (UpdateBatch and AdoptFolded driven by the cluster follower loop).
	Role string
}

func (o Options) withDefaults() Options {
	if o.Mutable && o.RebuildThreshold == 0 {
		o.RebuildThreshold = DefaultRebuildThreshold
	}
	return o
}

// Server answers RLC reachability queries over HTTP. All serving state —
// index, graph, hybrid-evaluator pool, delta overlay — lives in a Store
// generation that every request loads once and keeps for its own lifetime,
// so the served snapshot can be hot-swapped (SIGHUP / POST /reload in
// rlcserve) with zero downtime: in-flight queries finish against the
// generation they started on, new queries see the new one, and the garbage
// collector reclaims the old one after the last straggler lets go.
type Server struct {
	store *Store
	opts  Options
	start time.Time

	// swapMu serializes every generation swap — reloads and folds — so two
	// swappers cannot interleave open/build-then-swap.
	swapMu sync.Mutex

	// updateMu serializes writers with the fold's install step: an update
	// appends to the current generation's overlay under it, and a fold
	// holds it only while carrying the journal tail into the next
	// generation — so no insert can slip between the carry-over and the
	// swap and be lost. The read path never takes it.
	updateMu sync.Mutex

	// rebuilding dedups background fold goroutines.
	rebuilding     atomic.Bool
	lastRebuildUS  atomic.Int64
	lastFoldPhases atomic.Pointer[FoldPhases]
	lastRebuildEr  atomic.Pointer[string]

	// batchQueries counts the queries received through POST /batch: one
	// add per request, so /stats can price a batched query.
	batchQueries atomic.Int64

	mQuery   histogram
	mBatch   histogram
	mStats   histogram
	mHealthz histogram
	mReload  histogram
	mUpdate  histogram
	mRebuild histogram

	// hs is created eagerly so a Shutdown that races ahead of Serve still
	// marks the server closed (Serve then returns http.ErrServerClosed,
	// matching the net/http contract) instead of silently no-opping.
	hs *httpd.Server
}

// New returns a Server over ix. The index is rendered as a bundle once and
// served from those bytes, like a bundle read from disk. It panics if the
// rendered bundle does not open and verify, which only a defect in the
// bundle writer can cause.
func New(ix *core.Index, opts Options) *Server {
	snap, err := renderBundle(ix)
	if err != nil {
		panic(err)
	}
	return NewFromSnapshot(snap, opts)
}

// NewFromSnapshot returns a Server over an open snapshot bundle.
func NewFromSnapshot(snap *core.Snapshot, opts Options) *Server {
	s := &Server{
		store: newStore(snap, opts),
		opts:  opts.withDefaults(),
		start: time.Now(),
	}
	s.hs = &httpd.Server{Handler: s.Handler()}
	return s
}

// Store exposes the server's generation store — the hot-swap surface used
// by embedding programs and tests.
func (s *Server) Store() *Store { return s.store }

// Reload obtains a fresh snapshot from Options.SnapshotSource and swaps it
// in, returning the new generation. In-flight queries keep the old
// generation until they finish; a failed source leaves the server on its
// current generation.
func (s *Server) Reload() (uint64, error) {
	if s.opts.Mutable {
		return 0, errors.New("server: mutable servers do not reload external bundles (journal edges would be dropped); fold with Rebuild instead")
	}
	if s.opts.SnapshotSource == nil {
		return 0, errors.New("server: no snapshot source configured; set Options.SnapshotSource to enable reloads")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	snap, err := s.opts.SnapshotSource()
	if err != nil {
		return 0, fmt.Errorf("server: reload: %w", err)
	}
	s.store.SwapSnapshot(snap)
	return s.store.Generation(), nil
}

// Handler returns the HTTP handler serving all endpoints:
//
//	GET  /query?s=&t=&l=   one query; l is an expression ("(l0 l1)+", "a+ b+")
//	POST /batch            {"queries":[{"s":0,"t":4,"l":"l0 l1"},...]}
//	POST /update           mutable servers: insert edges ({"s":0,"l":"l1","t":4} or {"edges":[...]})
//	POST /rebuild          mutable servers: fold the journal into a rebuilt base, synchronously
//	POST /reload           hot-swap the serving snapshot (immutable servers, when configured)
//	GET  /stats            latency, index, and write-path statistics
//	GET  /healthz          liveness, with the serving generation and (mutable) epoch/journal
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /query", s.timed(&s.mQuery, s.onCurrent(s.handleQuery)))
	mux.HandleFunc("POST /batch", s.timed(&s.mBatch, s.onCurrent(s.handleBatch)))
	mux.HandleFunc("POST /update", s.timed(&s.mUpdate, s.onCurrent(s.handleUpdate)))
	mux.HandleFunc("POST /rebuild", s.timed(&s.mRebuild, s.handleRebuild))
	mux.HandleFunc("POST /reload", s.timed(&s.mReload, s.handleReload))
	mux.HandleFunc("GET /stats", s.timed(&s.mStats, s.onCurrent(s.handleStats)))
	mux.HandleFunc("GET /healthz", s.timed(&s.mHealthz, s.onCurrent(s.handleHealthz)))
	return mux
}

// Serve accepts connections on ln and serves them through httpd's
// connection loop until Shutdown. It returns http.ErrServerClosed after a
// clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.hs.Serve(ln)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown stops accepting new connections and waits for in-flight requests
// to complete, like net/http.Server.Shutdown. Calling it before Serve marks
// the server closed, so a later Serve returns http.ErrServerClosed. It does
// not stop the serving methods; Close does.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// Close stops serving: requests and method calls after it fail with
// server_closed (HTTP 503). It releases nothing and returns nil; call it
// after Shutdown.
func (s *Server) Close() error {
	return s.store.Close()
}

// CacheStats is the shape the result cache's counters had.
// Kept for benchmark/; leaves with ROADMAP item 2.
type CacheStats struct{ Hits, Misses, Evictions int64 }

// CacheStats returns the zero value: there is no result cache.
// Kept for benchmark/; leaves with ROADMAP item 2.
func (s *Server) CacheStats() CacheStats { return CacheStats{} }

// errServerClosed is returned to queries arriving after Close.
var errServerClosed = errors.New("server: closed")

// AnswerRLC answers one (s, t, L+) query the way the serving path does —
// the index, the traversal fallback when L is outside the index's class,
// the delta overlay when journal edges are pending — without the HTTP
// layer, under ctx. cached is always false.
// Kept for benchmark/; leaves with ROADMAP item 2.
func (s *Server) AnswerRLC(ctx context.Context, src, dst graph.Vertex, l labelseq.Seq) (reachable, cached bool, err error) {
	reachable, err = s.QueryRLC(ctx, src, dst, l)
	return reachable, false, err
}

// QueryRLC answers one (s, t, L+) query through the serving path,
// satisfying the facade's Querier interface.
func (s *Server) QueryRLC(ctx context.Context, src, dst graph.Vertex, l labelseq.Seq) (bool, error) {
	st := s.store.current()
	if st == nil {
		return false, errServerClosed
	}
	return st.computeSeq(ctx, src, dst, l)
}

// computeSeq answers (src, dst, l+) on one generation. Immutable
// generations (and mutable ones with an empty journal — checking emptiness
// first is a valid linearization point) go straight to the base:
// Index.Query when the constraint is in the index's class, the pooled hybrid
// evaluator (which falls back to NFA-guided traversal) otherwise. With
// journal edges pending, the delta overlay answers: the base index first and
// then the bidirectional search over the union for index-class constraints,
// that search alone for the rest. An index-class answer from the base costs
// the probe and nothing else.
func (st *state) computeSeq(ctx context.Context, src, dst graph.Vertex, l labelseq.Seq) (bool, error) {
	inClass := st.ix.InClass(l)
	if st.delta != nil && st.delta.JournalLen() > 0 {
		if inClass {
			return st.delta.QueryRLC(ctx, src, dst, l) // overlay search
		}
		return st.delta.EvalExprCtx(ctx, src, dst, automaton.Plus(l)) // overlay search
	}
	if inClass {
		return st.ix.QueryRLC(ctx, src, dst, l)
	}
	h := st.hybrids.Get().(*hybrid.Evaluator)
	defer st.hybrids.Put(h)
	return h.EvalCtx(ctx, src, dst, automaton.Plus(l)) // traversal fallback
}

// answerExpr answers a parsed expression: a single plus-segment is an RLC
// query, anything else goes to computeExpr.
func (st *state) answerExpr(ctx context.Context, src, dst graph.Vertex, e automaton.Expr) (bool, error) {
	if len(e.Segments) == 1 && e.Segments[0].Plus {
		return st.computeSeq(ctx, src, dst, e.Segments[0].Labels)
	}
	return st.computeExpr(ctx, src, dst, e)
}

// computeExpr answers a multi-segment expression: the delta overlay's exact
// NFA search when journal edges are pending, the pooled hybrid evaluator
// over the base otherwise.
func (st *state) computeExpr(ctx context.Context, src, dst graph.Vertex, e automaton.Expr) (bool, error) {
	if st.delta != nil && st.delta.JournalLen() > 0 {
		return st.delta.EvalExprCtx(ctx, src, dst, e)
	}
	h := st.hybrids.Get().(*hybrid.Evaluator)
	defer st.hybrids.Put(h)
	return h.EvalCtx(ctx, src, dst, e)
}

// parseExpr resolves an expression with the shared graph-aware rules
// (automaton.ParseForGraph — the same resolver as the rlc facade and CLIs)
// plus one serving-layer convenience: an expression with no '+' anywhere
// ("l0 l1") is read as the single RLC constraint (l0 l1)+, so query URLs
// don't need to escape parentheses for the common case.
func (st *state) parseExpr(text string) (automaton.Expr, error) {
	e, err := automaton.ParseForGraph(text, st.g)
	if err != nil {
		return automaton.Expr{}, err
	}
	for _, seg := range e.Segments {
		if seg.Plus {
			return e, nil
		}
	}
	var all labelseq.Seq
	for _, seg := range e.Segments {
		all = append(all, seg.Labels...)
	}
	return automaton.Plus(all), nil
}

// vertex resolves a vertex token: a numeric id first (O(1), the hot case for
// programmatic clients), then a display-name scan. Range violations wrap
// the same typed sentinel Index.Query uses, so HTTP clients see one stable
// error code for them.
func (st *state) vertex(tok string) (graph.Vertex, error) {
	if id, err := strconv.Atoi(tok); err == nil {
		if id < 0 || id >= st.g.NumVertices() {
			return 0, fmt.Errorf("%w: vertex %d out of range [0, %d)", core.ErrVertexRange, id, st.g.NumVertices())
		}
		return graph.Vertex(id), nil
	}
	if v, ok := st.g.VertexByName(tok); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown vertex %q", tok)
}

// timed wraps a handler with its endpoint histogram.
func (s *Server) timed(h *histogram, fn func(http.ResponseWriter, *http.Request) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ok := fn(w, r)
		h.observe(time.Since(start), !ok)
	}
}

// onCurrent runs a handler on the current generation, loaded once for the
// whole request, and answers 503 once the server is closed.
func (s *Server) onCurrent(fn func(*state, http.ResponseWriter, *http.Request) bool) func(http.ResponseWriter, *http.Request) bool {
	return func(w http.ResponseWriter, r *http.Request) bool {
		st := s.store.current()
		if st == nil {
			return writeError(w, http.StatusServiceUnavailable, "server closed")
		}
		return fn(st, w, r)
	}
}

// reloadResponse is the POST /reload reply.
type reloadResponse struct {
	Generation uint64  `json:"generation"`
	Source     string  `json:"source"`
	Micros     float64 `json:"micros"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) bool {
	if s.opts.SnapshotSource == nil {
		return writeError(w, http.StatusNotImplemented,
			"reload not configured: the server has no snapshot source")
	}
	start := time.Now()
	gen, err := s.Reload()
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err)
	}
	source := ""
	if st := s.store.current(); st != nil {
		source = st.source
	}
	return writeJSON(w, http.StatusOK, reloadResponse{
		Generation: gen,
		Source:     source,
		Micros:     float64(time.Since(start).Nanoseconds()) / 1e3,
	})
}

// MutableStats is the write-path section of GET /stats: the current epoch,
// the pending journal, and fold history.
type MutableStats struct {
	// Epoch is the epoch of the generation the reply describes: the folds
	// completed (leader-side or adopted) up to it.
	Epoch uint64 `json:"epoch"`
	// Journal is the number of inserted edges not yet folded into the base.
	Journal int `json:"journal"`
	// Writes counts accepted edge inserts across all epochs.
	Writes uint64 `json:"writes"`
	// OverlaySearches counts the reads of this epoch that missed the base
	// index and ran the overlay's bidirectional search, and OverlayVisited
	// the product nodes those searches marked; their ratio is the cost of an
	// average overlay read. Both restart at a fold, like the tiers counters.
	OverlaySearches uint64 `json:"overlay_searches"`
	OverlayVisited  uint64 `json:"overlay_visited"`
	// LastRebuildMicros is the duration of the most recent fold (0 before
	// the first).
	LastRebuildMicros float64 `json:"last_rebuild_micros,omitempty"`
	// FoldPhases splits LastRebuildMicros into union_micros, build_micros,
	// bundle_micros and swap_micros; nil (and absent from /stats) before
	// the first fold.
	*FoldPhases
	// LastRebuildError is the most recent fold failure ("" when the last
	// fold succeeded).
	LastRebuildError string `json:"last_rebuild_error,omitempty"`
}

// tierStatsResponse is the "tiers" section of /stats, present only when the
// serving index is size-budgeted. The hit counters are cumulative over the
// serving generation's lifetime; operators watch the definite/maybe ratio to
// judge whether the configured budget keeps the filter tier selective.
type tierStatsResponse struct {
	Budget             int64 `json:"budget"`
	RetainedVertices   int   `json:"retained_vertices"`
	DemotedVertices    int   `json:"demoted_vertices"`
	FilterBytes        int64 `json:"filter_bytes"`
	UnionSets          int   `json:"union_sets"`
	BloomBitsPerFilter int   `json:"bloom_bits_per_filter"`
	ExactHits          int64 `json:"exact_hits"`
	FilterDefinite     int64 `json:"filter_definite"`
	FilterMaybe        int64 `json:"filter_maybe"`
}

// statsResponse is the GET /stats reply.
type statsResponse struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Generation    uint64             `json:"generation"`
	Source        string             `json:"source"`
	Index         core.Stats         `json:"index"`
	Tiers         *tierStatsResponse `json:"tiers,omitempty"`
	Mutable       *MutableStats      `json:"mutable,omitempty"`
	// BatchQueries is the number of queries received through POST /batch;
	// endpoints.batch.mean_us × count ÷ batch_queries prices one of them.
	BatchQueries int64                    `json:"batch_queries"`
	Endpoints    map[string]EndpointStats `json:"endpoints"`
}

func (s *Server) mutableStats(st *state) MutableStats {
	ms := MutableStats{
		Epoch:             st.epoch,
		Journal:           st.delta.JournalLen(),
		Writes:            s.store.writes.Load(),
		LastRebuildMicros: float64(s.lastRebuildUS.Load()),
		FoldPhases:        s.lastFoldPhases.Load(),
	}
	ms.OverlaySearches, ms.OverlayVisited = st.delta.OverlayStats()
	if e := s.lastRebuildEr.Load(); e != nil {
		ms.LastRebuildError = *e
	}
	return ms
}

func (s *Server) handleStats(st *state, w http.ResponseWriter, r *http.Request) bool {
	resp := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generation:    st.gen,
		Source:        st.source,
		Index:         st.ix.Stats(),
		BatchQueries:  s.batchQueries.Load(),
		Endpoints: map[string]EndpointStats{
			"query":   s.mQuery.snapshot(),
			"batch":   s.mBatch.snapshot(),
			"update":  s.mUpdate.snapshot(),
			"rebuild": s.mRebuild.snapshot(),
			"reload":  s.mReload.snapshot(),
			"stats":   s.mStats.snapshot(),
			"healthz": s.mHealthz.snapshot(),
		},
	}
	if st.ix.Tiered() {
		ts := st.ix.TierStats()
		resp.Tiers = &tierStatsResponse{
			Budget:             ts.Budget,
			RetainedVertices:   ts.RetainedVertices,
			DemotedVertices:    ts.DemotedVertices,
			FilterBytes:        ts.FilterBytes,
			UnionSets:          ts.UnionSets,
			BloomBitsPerFilter: ts.BloomBitsPerFilter,
			ExactHits:          ts.ExactHits,
			FilterDefinite:     ts.FilterDefinite,
			FilterMaybe:        ts.FilterMaybe,
		}
	}
	if st.delta != nil {
		ms := s.mutableStats(st)
		resp.Mutable = &ms
	}
	return writeJSON(w, http.StatusOK, resp)
}

// healthzResponse is the GET /healthz reply: liveness plus the minimum a
// probe — or the cluster router's health poller — needs to watch an epoch
// roll over and track replication progress without parsing full /stats.
// role, journal_seq, and bundle_fingerprint are always present; the router
// uses journal_seq as a safe lower bound when pinning clients to replicas
// (it only ever grows) and bundle_fingerprint to confirm lineage.
type healthzResponse struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	Epoch      *uint64 `json:"epoch,omitempty"`
	Journal    *int    `json:"journal,omitempty"`
	// Role is the replication role ("standalone", "leader", "follower").
	Role string `json:"role"`
	// JournalSeq is the global insert sequence applied so far — folded
	// base plus overlay journal (seqNow of the serving generation).
	JournalSeq uint64 `json:"journal_seq"`
	// BundleFingerprint is the compact fingerprint of the serving base.
	BundleFingerprint string `json:"bundle_fingerprint"`
	// IndexBudget is the configured MaxIndexBytes when the serving index is
	// size-budgeted (tiered); omitted otherwise. Health pollers use it to
	// confirm a replica serves the intended index tier configuration.
	IndexBudget int64 `json:"index_budget,omitempty"`
}

func (s *Server) handleHealthz(st *state, w http.ResponseWriter, r *http.Request) bool {
	resp := healthzResponse{
		Status:            "ok",
		Generation:        st.gen,
		Role:              s.opts.role(),
		JournalSeq:        st.seqNow(),
		BundleFingerprint: st.fp,
		IndexBudget:       st.ix.TierStats().Budget,
	}
	if st.delta != nil {
		epoch := st.epoch
		journal := st.delta.JournalLen()
		resp.Epoch = &epoch
		resp.Journal = &journal
	}
	return writeJSON(w, http.StatusOK, resp)
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable classification derived from the typed
	// sentinel the failure wraps ("" when the error carries no sentinel).
	Code string `json:"code,omitempty"`
}

// errorCode maps an error chain onto its stable wire code via the typed
// sentinels the facade exports; clients switch on these instead of parsing
// message text. TestErrorCodeTable holds the mapping exhaustive: it names
// every sentinel this package and the packages it imports declare, with its
// wire code or on its exempt list, and scripts/lint.sh fails on a sentinel it
// does not name.
func errorCode(err error) string {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &tooLarge):
		return "body_too_large"
	case errors.Is(err, core.ErrVertexRange):
		return "vertex_range"
	case errors.Is(err, core.ErrGraphMismatch):
		return "graph_mismatch"
	case errors.Is(err, snapshot.ErrCorrupt):
		return "corrupt_snapshot"
	case errors.Is(err, core.ErrNotMinimumRepeat):
		return "not_minimum_repeat"
	case errors.Is(err, core.ErrConstraintTooLong):
		return "constraint_too_long"
	case errors.Is(err, core.ErrUnknownLabel):
		return "unknown_label"
	case errors.Is(err, core.ErrEmptyConstraint):
		return "empty_constraint"
	case errors.Is(err, dynamic.ErrDeletionsUnsupported):
		return "deletions_unsupported"
	case errors.Is(err, errNotMutable):
		return "immutable"
	case errors.Is(err, errNotLeader):
		return "not_leader"
	case errors.Is(err, errSeqFolded):
		return "behind_bundle"
	case errors.Is(err, errSeqAhead):
		return "foreign_log"
	case errors.Is(err, errEpochGone):
		return "epoch_gone"
	case errors.Is(err, automaton.ErrTooLarge):
		return "expression_too_large"
	case errors.Is(err, automaton.ErrEmpty):
		return "empty_expression"
	case errors.Is(err, errServerClosed):
		return "server_closed"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return ""
	}
}

// ErrorCode exposes the wire-code classification to layers that embed the
// server and surface its errors on their own endpoints — the cluster
// leader's replication handlers switch on it ("behind_bundle",
// "foreign_log", "epoch_gone", ...) instead of matching message text.
func ErrorCode(err error) string { return errorCode(err) }

// writeErr reports a request failure carrying a real error: the message is
// the error text and the code its typed classification.
func writeErr(w http.ResponseWriter, status int, err error) bool {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: errorCode(err)})
	return false
}

// writeError reports a request failure with a plain message; the bool
// return (always false) lets handlers `return writeError(...)` and feed the
// endpoint error counter.
func writeError(w http.ResponseWriter, status int, format string, args ...any) bool {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) bool {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already written, so an encode error cannot change
	// the response; the client sees the truncated body and fails its parse.
	_ = json.NewEncoder(w).Encode(v)
	return status < 400
}
