package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// errNotMutable rejects write-path operations on a read-only server.
var errNotMutable = errors.New("server: not mutable; start with Options.Mutable (rlccluster -role leader) to accept updates")

// UpdateResult reports one accepted update batch.
type UpdateResult struct {
	// Accepted is the number of edges appended to the journal.
	Accepted int `json:"accepted"`
	// Journal is the journal length after the batch.
	Journal int `json:"journal"`
	// Epoch is the fold epoch the batch landed in.
	Epoch uint64 `json:"epoch"`
	// Seq is the global insert sequence after the batch — a consistency
	// token at least as new as every edge in it: a replica serving at or
	// past (Epoch, Seq) reflects the write (read-your-writes routing).
	Seq uint64 `json:"seq"`
	// RebuildTriggered reports that this batch pushed the journal across
	// the threshold and a background fold was started.
	RebuildTriggered bool `json:"rebuild_triggered"`
}

// FoldPhases says where a fold's wall time went, in microseconds. The four
// phases run back to back under the fold lock and sum to at most the fold's
// total (RebuildResult.Duration, "micros", "last_rebuild_micros").
type FoldPhases struct {
	// UnionMicros is materializing base ∪ journal as one graph.
	UnionMicros float64 `json:"union_micros"`
	// BuildMicros is core.Build over that graph.
	BuildMicros float64 `json:"build_micros"`
	// BundleMicros is rendering the folded bundle, opening and verifying
	// it, and writing it to Options.RebuildPath with fsync when that is set.
	BundleMicros float64 `json:"bundle_micros"`
	// SwapMicros is carrying over the journal tail and swapping the new
	// generation in — the only phase writers wait for.
	SwapMicros float64 `json:"swap_micros"`
}

// RebuildResult reports one completed fold-and-rebuild.
type RebuildResult struct {
	// Epoch is the epoch the fold produced.
	Epoch uint64 `json:"epoch"`
	// Generation is the store generation serving the folded base.
	Generation uint64 `json:"generation"`
	// Folded is how many journal edges were folded into the new base.
	Folded int `json:"folded"`
	// Journal is how many un-folded edges the new epoch starts with
	// (inserts that arrived while the rebuild ran).
	Journal int `json:"journal"`
	// Path is the file the fold wrote its bundle to (Options.RebuildPath;
	// "" when the bundle lives in memory only).
	Path string `json:"path,omitempty"`
	// Duration is the wall time of the fold, including the index build
	// and bundle write.
	Duration time.Duration `json:"-"`
	// FoldPhases splits Duration; a phase the fold never reached is 0.
	FoldPhases
	// Err is set only on the OnRebuild callback for failed folds; the
	// previous generation keeps serving.
	Err error `json:"-"`
}

// UpdateBatch validates and inserts edges atomically: either every edge is
// appended to the serving generation's journal in one publish, or none is.
// Queries racing with the batch never block and answer exactly against
// whatever prefix of the batch is visible. Crossing Options.
// RebuildThreshold triggers a background fold; the call never waits for it.
func (s *Server) UpdateBatch(edges []graph.Edge) (UpdateResult, error) {
	if !s.opts.Mutable {
		return UpdateResult{}, errNotMutable
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	st := s.store.current()
	if st == nil {
		return UpdateResult{}, errServerClosed
	}
	// Publishing the batch advances seqNow: a read stamped with the new
	// sequence already searches the new edges.
	if err := st.delta.AddEdges(edges); err != nil {
		return UpdateResult{}, err
	}
	// Epoch and Seq come from the generation the batch landed in (updateMu
	// excludes a concurrent fold's swap, so it IS the current one) —
	// mutually consistent coordinates for the write token.
	res := UpdateResult{
		Accepted: len(edges),
		Journal:  st.delta.JournalLen(),
		Epoch:    st.epoch,
		Seq:      st.seqNow(),
	}
	s.store.writes.Add(uint64(len(edges))) // /stats only
	if thr := s.opts.RebuildThreshold; thr > 0 && res.Journal >= thr {
		res.RebuildTriggered = s.triggerRebuild()
	}
	return res, nil
}

// triggerRebuild starts a background fold-and-rebuild goroutine, reporting
// whether it started one (false when a fold is already running). The folder
// keeps folding until the journal is back under the threshold or a fold
// fails.
func (s *Server) triggerRebuild() bool {
	if !s.rebuilding.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer s.rebuilding.Store(false)
		for {
			res, err := s.rebuildOnce()
			if err != nil {
				return
			}
			if thr := s.opts.RebuildThreshold; thr <= 0 || res.Journal < thr {
				return
			}
		}
	}()
	return true
}

// Rebuild folds the journal into a rebuilt base synchronously and returns
// the fold's outcome. Queries never block on it; concurrent updates are
// carried into the new epoch. A no-op (empty journal) returns the current
// epoch with Folded == 0.
func (s *Server) Rebuild() (RebuildResult, error) {
	if !s.opts.Mutable {
		return RebuildResult{}, errNotMutable
	}
	return s.rebuildOnce()
}

// rebuildOnce performs one complete fold: materialize base ∪ journal from
// the serving generation, rebuild the index (no server lock held — queries
// and updates proceed), render its bundle once, verify it and write those
// bytes to Options.RebuildPath when set, then swap the new generation in
// with the un-folded journal tail carried over. Writers are paused only for
// the carry-over and swap.
func (s *Server) rebuildOnce() (res RebuildResult, err error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	start := time.Now()
	defer func() { s.finishRebuild(&res, start, err) }()

	union, folded, buildOpts, err := s.foldInput()
	unionDone := time.Now()
	res.UnionMicros = micros(unionDone.Sub(start))
	if err != nil {
		return res, err
	}
	if folded == 0 {
		res.Epoch, res.Generation = s.epoch.Load(), s.store.Generation()
		return res, nil
	}

	ix, err := core.Build(union, buildOpts)
	buildDone := time.Now()
	res.BuildMicros = micros(buildDone.Sub(unionDone))
	if err != nil {
		err = fmt.Errorf("server: fold rebuild: %w", err)
		return res, err
	}
	snap, err := renderBundle(ix)
	if err != nil {
		return res, err
	}
	source := "folded in-process"
	if s.opts.RebuildPath != "" {
		if err = snap.SaveFile(s.opts.RebuildPath); err != nil {
			err = fmt.Errorf("server: write folded bundle: %w", err)
			return res, err
		}
		source = "folded snapshot " + s.opts.RebuildPath
	}
	bundleDone := time.Now()
	res.BundleMicros = micros(bundleDone.Sub(buildDone))

	leftover, epoch, err := s.installFolded(snap, folded, source)
	res.SwapMicros = micros(time.Since(bundleDone))
	if err != nil {
		return res, err
	}

	res.Epoch = epoch
	res.Generation = s.store.Generation()
	res.Folded = folded
	res.Journal = leftover
	res.Path = s.opts.RebuildPath
	return res, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// foldInput materializes base ∪ journal of the serving generation and reads
// its build parameters. A generation is a bundle, and a bundle records only
// k and, when the index is tiered, its size budget; the fold rebuilds with
// those two, so a budgeted base folds into a budgeted epoch.
func (s *Server) foldInput() (union *graph.Graph, folded int, opts core.Options, err error) {
	st := s.store.current()
	if st == nil {
		return nil, 0, core.Options{}, errServerClosed
	}
	union, folded = st.delta.FoldInput()
	return union, folded, st.ix.BuildOptions(), nil
}

// installFolded pauses writers, carries the un-folded journal tail into the
// new generation, and swaps it in. Returns the carried-over journal length
// and the new epoch. Writers pause only here, so the journal tail observed
// is complete and no insert slips between carry-over and swap.
func (s *Server) installFolded(snap *core.Snapshot, folded int, source string) (leftover int, epoch uint64, err error) {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	st := s.store.current()
	if st == nil {
		return 0, 0, errServerClosed
	}
	tail := st.delta.JournalTail(folded)
	// The new generation advances the replication timeline: one more epoch,
	// and the folded journal prefix moves under the base (seqBase). Derived
	// from the pre-fold state so a racing reader's (epoch, seq) translation
	// stays consistent with whichever generation it loaded.
	epoch = st.epoch + 1
	s.store.SwapFolded(snap, tail, source, epoch, st.seqBase+uint64(folded))
	s.epoch.Store(epoch)
	return len(tail), epoch, nil
}

// finishRebuild records fold telemetry and fires the OnRebuild callback.
func (s *Server) finishRebuild(res *RebuildResult, start time.Time, err error) {
	res.Duration = time.Since(start)
	s.lastRebuildUS.Store(res.Duration.Microseconds())
	phases := res.FoldPhases
	s.lastFoldPhases.Store(&phases)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.lastRebuildEr.Store(&msg)
	if s.opts.OnRebuild != nil {
		cb := *res
		cb.Err = err
		s.opts.OnRebuild(cb)
	}
}

// vertexToken accepts a vertex as a JSON number (35) or string ("A14"),
// normalizing both to the token the vertex resolver takes.
type vertexToken string

func (v *vertexToken) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*v = vertexToken(s)
		return nil
	}
	*v = vertexToken(b)
	return nil
}

// updateEdgeInput is one edge of a POST /update request. s and t accept
// numeric ids or display names (like queries); l is a single label token,
// resolved as a query's labels are. op may be "insert" (the default);
// "delete" is rejected with the deletions_unsupported code — the RLC index
// is insert-only incremental.
type updateEdgeInput struct {
	S vertexToken `json:"s"`
	// L reuses the token normalizer so labels, like vertices, arrive as a
	// JSON number (1) or string ("credits").
	L  vertexToken `json:"l"`
	T  vertexToken `json:"t"`
	Op string      `json:"op,omitempty"`
}

// updateRequest is the POST /update body: either one inline edge
// ({"s":0,"l":"l1","t":4}) or a batch ({"edges":[...]}) — batches apply
// atomically, so one invalid edge rejects the request.
type updateRequest struct {
	updateEdgeInput
	Edges []updateEdgeInput `json:"edges"`
}

func (s *Server) handleUpdate(st *state, w http.ResponseWriter, r *http.Request) bool {
	if !s.opts.Mutable {
		return writeErr(w, http.StatusNotImplemented, errNotMutable)
	}
	if s.opts.Role == "follower" {
		return writeErr(w, http.StatusForbidden, errNotLeader)
	}
	limitBody(w, r)
	var req updateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return writeErr(w, http.StatusRequestEntityTooLarge, err)
		}
		return writeError(w, http.StatusBadRequest, "decode request: %v", err)
	}
	inputs := req.Edges
	if len(inputs) == 0 {
		if string(req.S) == "" && string(req.T) == "" && string(req.L) == "" {
			return writeError(w, http.StatusBadRequest, "empty update: provide s/l/t or a non-empty edges array")
		}
		inputs = []updateEdgeInput{req.updateEdgeInput}
	}
	if len(inputs) > DefaultMaxBatch {
		return writeError(w, http.StatusRequestEntityTooLarge,
			"update of %d edges exceeds the limit of %d", len(inputs), DefaultMaxBatch)
	}
	edges := make([]graph.Edge, len(inputs))
	for i, in := range inputs {
		e, err := st.resolveUpdateEdge(in)
		if err != nil {
			return writeErr(w, http.StatusBadRequest, fmt.Errorf("edge %d: %w", i, err))
		}
		edges[i] = e
	}
	res, err := s.UpdateBatch(edges)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err)
	}
	// Write token headers come from the batch's own result, not the
	// handler's generation: a fold may have swapped generations between
	// this handler's load and the batch landing, and the token must
	// describe the generation that actually took the write.
	h := w.Header()
	h.Set(HeaderEpoch, strconv.FormatUint(res.Epoch, 10))
	h.Set(HeaderSeq, strconv.FormatUint(res.Seq, 10))
	return writeJSON(w, http.StatusOK, res)
}

// resolveUpdateEdge validates one update input into a graph edge.
func (st *state) resolveUpdateEdge(in updateEdgeInput) (graph.Edge, error) {
	switch in.Op {
	case "", "insert":
	case "delete":
		return graph.Edge{}, dynamic.ErrDeletionsUnsupported
	default:
		return graph.Edge{}, fmt.Errorf("unknown op %q (want \"insert\")", in.Op)
	}
	src, err := st.vertex(string(in.S))
	if err != nil {
		return graph.Edge{}, fmt.Errorf("s: %w", err)
	}
	dst, err := st.vertex(string(in.T))
	if err != nil {
		return graph.Edge{}, fmt.Errorf("t: %w", err)
	}
	// The one label resolver the expression parser uses, so a token names
	// the same label in an update as in a query; a miss wraps
	// ErrUnknownLabel, the sentinel the index uses.
	lb, ok := automaton.LabelForGraph(string(in.L), st.g)
	if !ok {
		return graph.Edge{}, fmt.Errorf("l: %w: %q", core.ErrUnknownLabel, string(in.L))
	}
	return graph.Edge{Src: src, Dst: dst, Label: lb}, nil
}

// rebuildResponse is the POST /rebuild reply.
type rebuildResponse struct {
	Epoch      uint64  `json:"epoch"`
	Generation uint64  `json:"generation"`
	Folded     int     `json:"folded"`
	Journal    int     `json:"journal"`
	Path       string  `json:"path,omitempty"`
	Micros     float64 `json:"micros"`
	FoldPhases
}

// handleRebuild folds synchronously: the admin caller waits for the fold,
// queries never do.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) bool {
	if !s.opts.Mutable {
		return writeErr(w, http.StatusNotImplemented, errNotMutable)
	}
	if s.opts.Role == "follower" {
		return writeErr(w, http.StatusForbidden, errNotLeader)
	}
	res, err := s.Rebuild()
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err)
	}
	return writeJSON(w, http.StatusOK, rebuildResponse{
		Epoch:      res.Epoch,
		Generation: res.Generation,
		Folded:     res.Folded,
		Journal:    res.Journal,
		Path:       res.Path,
		Micros:     micros(res.Duration),
		FoldPhases: res.FoldPhases,
	})
}
