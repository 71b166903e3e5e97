// Package rlc is a Go implementation of the RLC index from "A Reachability
// Index for Recursive Label-Concatenated Graph Queries" (Zhang, Bonifati,
// Kapp, Haprian, Lozi — ICDE 2023): the first reachability index for RLC
// queries (s, t, L+), which ask whether some path from s to t carries a
// label sequence that is one or more repetitions of the label concatenation
// L = (l1, ..., lk).
//
// # Quick start
//
//	b := rlc.NewGraphBuilder(0, 0)
//	b.AddEdge(0, 0 /* label */, 1)
//	b.AddEdge(1, 1, 2)
//	g := b.Build()
//
//	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
//	if err != nil { ... }
//	ok, err := ix.Query(0, 2, rlc.Seq{0, 1}) // is there an (l0 l1)+ path 0 -> 2?
//
// The module is self-contained (no external dependencies): from a clean
// checkout, `go build ./...` and `go test ./...` are all that is needed.
//
// # Batch queries
//
// The built index is immutable — internally one flat CSR entry array — so
// reads parallelize freely. For query traffic that arrives in batches,
// QueryBatch fans a query slice out over a worker pool and returns one
// result per query, position for position; each worker reuses its own
// scratch, so the steady state allocates nothing per query:
//
//	queries := []rlc.BatchQuery{
//		{S: 0, T: 2, L: rlc.Seq{0, 1}},
//		{S: 1, T: 2, L: rlc.Seq{1}},
//	}
//	for i, res := range ix.QueryBatch(queries, 0) { // 0 workers = GOMAXPROCS
//		if res.Err != nil { ... }      // per-query validation errors
//		use(queries[i], res.Reachable) // answers stay in request order
//	}
//
// Plain Query and QueryBatch may run concurrently against the same index.
// QueryBatchInto is the same fan-out writing into a caller-reused result
// buffer, for serving loops that want zero allocations per batch.
//
// # Snapshot bundles
//
// A built index freezes into a snapshot bundle: one self-contained file
// (graph CSR + packed index + label dictionary as checksummed sections)
// that OpenSnapshot reads into memory and adopts zero-copy — startup is one
// file read plus structural validation, no deserialization:
//
//	rlc.SaveSnapshotFile("g.rlcs", ix)         // or: rlcbuild -o g.rlcs
//	snap, err := rlc.OpenSnapshot("g.rlcs")    // one read, no per-entry decoding
//	if err := snap.Verify(); err != nil { ... } // full checksum pass
//	ok, err := snap.Index().Query(0, 2, rlc.Seq{0, 1})
//
// Corrupt or truncated bundles fail with errors wrapping
// ErrCorruptSnapshot — never a panic — and the embedded graph fingerprint
// makes binding an index to the wrong graph (ErrGraphMismatch) impossible.
// The bundle is the only format this package writes or reads.
//
// # Serving
//
// NewServer wraps an index in a long-running HTTP/JSON query service —
// every read goes straight to the index (a probe costs less than a cache
// lookup in front of it would), with per-endpoint latency histograms and
// graceful shutdown — the production read path the rlcserve command exposes.
// Every serving generation is a bundle: NewServer renders the index as one
// once and serves those bytes, as it serves a bundle read from disk:
//
//	srv := rlc.NewServer(ix, rlc.ServerOptions{})
//	go srv.ListenAndServe(":8080")
//	...
//	srv.Shutdown(ctx)
//
// See GET /query, POST /batch, POST /reload, GET /stats, and GET /healthz
// on the returned server's Handler.
//
// NewServerFromSnapshot serves an open bundle instead, and the server's
// Store hot-swaps a replacement bundle with zero downtime (rlcserve wires
// this to SIGHUP and POST /reload): each in-flight query keeps the
// generation it started on, new queries see the new snapshot immediately,
// and the garbage collector reclaims the old one after its last reader.
//
// # Live updates
//
// A server started with ServerOptions.Mutable also takes writes — the
// read/write epoch pipeline (rlccluster -role leader):
//
//	srv := rlc.NewServer(ix, rlc.ServerOptions{Mutable: true})
//	srv.UpdateBatch([]rlc.Edge{{Src: 7, Dst: 9, Label: 1}}) // or POST /update
//
// Inserted edges land in a per-generation journal that every query consults
// exactly and without locking (answers may only flip false→true: the write
// path is insert-only, deletions are rejected). When the journal crosses
// ServerOptions.RebuildThreshold — or on Server.Rebuild / POST /rebuild —
// a background goroutine folds base ∪ journal, reruns the build, renders and
// verifies the new bundle, writes it to ServerOptions.RebuildPath when set,
// and hot-swaps the new epoch through the same Store swap as a reload,
// carrying over edges inserted while it ran. Queries never block on a fold
// and answers stay exact across the swap. ServerOptions.OnRebuild observes
// every fold; /stats and /healthz expose the epoch and journal length.
//
// The Querier interface (QueryRLC) is the common read surface of *Index,
// *HybridEvaluator, and *Server, so read-only code can swap layers freely;
// context.Context runs through it, QueryBatchCtx, and every server handler.
//
// The package also ships the paper's baselines (NFA-guided BFS and BiBFS,
// the extended transitive closure), three mainstream-engine comparators,
// synthetic graph generators (Erdős–Rényi, Barabási–Albert, Zipfian
// labels), workload generation, and a benchmark harness reproducing every
// table and figure of the paper's evaluation (see cmd/rlcbench and the
// README).
package rlc

import (
	"context"
	"io"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/etc"
	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/server"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
	"github.com/g-rpqs/rlc-go/internal/traversal"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// Core graph and label types.
type (
	// Graph is an immutable edge-labeled directed graph.
	Graph = graph.Graph
	// GraphBuilder accumulates labeled edges.
	GraphBuilder = graph.Builder
	// Edge is a directed labeled edge.
	Edge = graph.Edge
	// Vertex is a dense 0-based vertex id.
	Vertex = graph.Vertex
	// Label is a dense 0-based edge-label id.
	Label = labelseq.Label
	// Seq is a sequence of edge labels; RLC constraints are Seqs.
	Seq = labelseq.Seq
	// GraphStats summarizes a graph (Table III style).
	GraphStats = graph.Stats
)

// Index types.
type (
	// Index is the RLC index (Definition 4).
	Index = core.Index
	// Options configures BuildIndex.
	Options = core.Options
	// IndexStats summarizes an index.
	IndexStats = core.Stats
	// EntryView is a decoded index entry.
	EntryView = core.EntryView
	// BatchQuery is one (S, T, L+) query of an Index.QueryBatch call.
	BatchQuery = core.BatchQuery
	// BatchResult is the positional answer to a BatchQuery: Reachable is
	// meaningful only when Err is nil.
	BatchResult = core.BatchResult
)

// Expression types for extended queries (Section VI-C).
type (
	// Expr is a path expression: a concatenation of plus segments.
	Expr = automaton.Expr
	// Segment is one piece of an Expr.
	Segment = automaton.Segment
)

// Errors re-exported from the index implementation. The serving layer maps
// each sentinel to a stable machine-readable "code" field in HTTP error
// responses, so clients classify failures with errors.Is locally and by
// code over the wire.
var (
	ErrNotMinimumRepeat  = core.ErrNotMinimumRepeat
	ErrConstraintTooLong = core.ErrConstraintTooLong
	ErrUnknownLabel      = core.ErrUnknownLabel
	ErrVertexRange       = core.ErrVertexRange
	ErrEmptyConstraint   = core.ErrEmptyConstraint

	// ErrCorruptSnapshot wraps every failure that means snapshot-bundle
	// bytes are not a well-formed v2 bundle: bad magic, truncation,
	// checksum mismatches, structural violations.
	ErrCorruptSnapshot = snapshot.ErrCorrupt
	// ErrGraphMismatch reports an index bound to a graph other than the
	// one it was built from (the snapshot fingerprint check).
	ErrGraphMismatch = core.ErrGraphMismatch
)

// Querier answers single RLC reachability queries (s, t, L+) under a
// context. It is the read interface shared by every query-answering layer
// of the module: the raw index (*Index), the hybrid evaluator
// (*HybridEvaluator, which also accepts constraints outside the index's
// class), and the serving path (*Server, which adds hot-swappable snapshots
// and the write overlay). Code that only reads — handlers, background
// checkers, tests — should accept a Querier and stay agnostic about which
// layer backs it.
type Querier interface {
	QueryRLC(ctx context.Context, s, t Vertex, l Seq) (bool, error)
}

// Every query-answering layer satisfies Querier.
var (
	_ Querier = (*Index)(nil)
	_ Querier = (*HybridEvaluator)(nil)
	_ Querier = (*Server)(nil)
	_ Querier = (*DeltaGraph)(nil)
)

// DefaultK is the recursive k used when Options.K is zero.
const DefaultK = core.DefaultK

// MaxK is the largest supported recursive k.
const MaxK = core.MaxK

// Vertex processing orders for Options.Order (ablation knobs; the zero
// value OrderInOut is the paper's strategy).
const (
	OrderInOut     = core.OrderInOut
	OrderDegreeSum = core.OrderDegreeSum
	OrderNatural   = core.OrderNatural
	OrderReverse   = core.OrderReverse
)

// NewGraphBuilder returns a builder for a graph with n vertices and
// numLabels labels; both grow as edges are added.
func NewGraphBuilder(n, numLabels int) *GraphBuilder { return graph.NewBuilder(n, numLabels) }

// GraphFromEdges builds a graph directly from an edge list.
func GraphFromEdges(n, numLabels int, edges []Edge) *Graph {
	return graph.FromEdges(n, numLabels, edges)
}

// ReadGraph parses the text edge-list format ("src dst label" lines).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph renders a graph in the text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// LoadGraphFile reads a graph from a text file.
func LoadGraphFile(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraphFile writes a graph to a text file.
func SaveGraphFile(path string, g *Graph) error { return graph.SaveFile(path, g) }

// ComputeGraphStats derives Table III-style statistics.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// BuildIndex constructs the RLC index for g (Algorithm 2).
func BuildIndex(g *Graph, opts Options) (*Index, error) { return core.Build(g, opts) }

// BuildStats counts what BuildIndexWithStats did during construction.
type BuildStats = core.BuildStats

// BuildIndexWithStats is BuildIndex plus construction counters (kernel
// searches run, entries inserted, inserts pruned per rule).
func BuildIndexWithStats(g *Graph, opts Options) (*Index, BuildStats, error) {
	return core.BuildWithStats(g, opts)
}

// Snapshot is an open v2 snapshot bundle: one self-contained,
// checksum-sectioned file holding a graph and the index built over it,
// read into memory and adopted zero-copy. Snapshot.Index and Snapshot.Graph
// stay valid as long as they are referenced; Close releases nothing. Verify
// runs the full integrity pass (section checksums + graph-fingerprint
// recomputation) that Open skips.
type Snapshot = core.Snapshot

// Fingerprint identifies the graph an index was built from: shape plus an
// edge-content hash. Embedded in snapshot bundles; compare with
// Graph.Fingerprint.
type Fingerprint = graph.Fingerprint

// OpenSnapshot opens a v2 snapshot bundle file written with WriteSnapshot
// or `rlcbuild -o`: one file read + structural validation, no
// deserialization — the production startup path (rlcserve -snapshot). Corruption anywhere
// surfaces as an error wrapping ErrCorruptSnapshot, never a panic.
func OpenSnapshot(path string) (*Snapshot, error) { return core.OpenSnapshot(path) }

// OpenVerifiedSnapshot is OpenSnapshot followed by Verify.
func OpenVerifiedSnapshot(path string) (*Snapshot, error) { return core.OpenVerifiedSnapshot(path) }

// OpenSnapshotBytes opens a bundle held in memory (an embedded artifact, a
// fetched blob). The Snapshot aliases data, which must stay unchanged.
func OpenSnapshotBytes(data []byte) (*Snapshot, error) { return core.OpenSnapshotBytes(data) }

// WriteSnapshot serializes ix and its graph as a self-contained v2 bundle.
func WriteSnapshot(w io.Writer, ix *Index) error { return ix.WriteSnapshot(w) }

// SaveSnapshotFile writes the v2 bundle of ix to path.
func SaveSnapshotFile(path string, ix *Index) error { return ix.SaveSnapshotFile(path) }

// EffectiveBatchWorkers reports how many workers Index.QueryBatch actually
// runs for a batch of numQueries when workers are requested (<= 0 meaning
// GOMAXPROCS) — small batches clamp to the available work.
func EffectiveBatchWorkers(numQueries, workers int) int {
	return core.EffectiveBatchWorkers(numQueries, workers)
}

// MinimumRepeat returns MR(s): the unique shortest sequence whose repetition
// is s (Lemma 1).
func MinimumRepeat(s Seq) Seq { return labelseq.MinimumRepeat(s) }

// IsMinimumRepeat reports whether l is its own minimum repeat — the
// admissibility condition for RLC constraints (Definition 1).
func IsMinimumRepeat(l Seq) bool { return labelseq.IsPrimitive(l) }

// EvalBFS answers (s, t, L+) by NFA-guided breadth-first search — the
// paper's first online baseline.
func EvalBFS(g *Graph, s, t Vertex, l Seq) (bool, error) { return traversal.EvalRLC(g, s, t, l) }

// EvalBiBFS answers (s, t, L+) by bidirectional BFS — the paper's second
// online baseline.
func EvalBiBFS(g *Graph, s, t Vertex, l Seq) (bool, error) { return traversal.EvalRLCBi(g, s, t, l) }

// EvalDFS answers (s, t, L+) by NFA-guided depth-first search — noted by
// the paper as the BFS alternative with identical complexity.
func EvalDFS(g *Graph, s, t Vertex, l Seq) (bool, error) {
	nfa, err := automaton.NewPlus(l, g.NumLabels())
	if err != nil {
		return false, err
	}
	return traversal.NewEvaluator(g).DFS(s, t, nfa), nil
}

// ETC types and constructors (the extended-transitive-closure baseline).
type (
	// ETC is the materialized extended transitive closure.
	ETC = etc.ETC
	// ETCOptions bounds ETC construction.
	ETCOptions = etc.Options
)

// BuildETC materializes the extended transitive closure of g.
func BuildETC(g *Graph, opts ETCOptions) (*ETC, error) { return etc.Build(g, opts) }

// HybridEvaluator answers extended queries (e.g. a+ b+) by combining the
// index with online traversal (Section VI-C).
type HybridEvaluator = hybrid.Evaluator

// NewHybridEvaluator returns a hybrid evaluator over the index's graph.
func NewHybridEvaluator(ix *Index) *HybridEvaluator { return hybrid.New(ix) }

// PlusExpr returns the single-segment RLC expression L+.
func PlusExpr(l Seq) Expr { return automaton.Plus(l) }

// ConcatPlusExpr returns l1+ ∘ l2+ ∘ ... (the Q4 query shape).
func ConcatPlusExpr(ls ...Seq) Expr { return automaton.ConcatPlus(ls...) }

// ParseExpr parses the textual expression syntax, resolving label names
// against g ("(debits credits)+", "knows+", "a+ b+"). Graphs without label
// names accept "l0"/"0" tokens.
func ParseExpr(s string, g *Graph) (Expr, error) {
	return automaton.ParseForGraph(s, g)
}

// Workload types and generation (Section VI-c).
type (
	// Query is one RLC query with its ground-truth answer.
	Query = workload.Query
	// Workload is a generated true/false query-set pair.
	Workload = workload.Workload
	// WorkloadOptions configures GenerateWorkload.
	WorkloadOptions = workload.Options
)

// GenerateWorkload builds a ground-truthed query workload for g.
func GenerateWorkload(g *Graph, opts WorkloadOptions) (Workload, error) {
	return workload.Generate(g, opts)
}

// GenerateER generates a directed Erdős–Rényi G(n, m) graph with Zipfian
// labels.
func GenerateER(n, m, numLabels int, seed int64) (*Graph, error) {
	return gen.ER(n, m, numLabels, seed)
}

// GenerateBA generates a directed Barabási–Albert graph (m out-edges per
// new vertex) with Zipfian labels.
func GenerateBA(n, m, numLabels int, seed int64) (*Graph, error) {
	return gen.BA(n, m, numLabels, seed)
}

// Dynamic-graph extension: the paper's index is static; DeltaGraph overlays
// edge insertions with exact query answers (the base index, then a
// bidirectional search over base ∪ journal; see internal/dynamic). It never
// folds: a Server with ServerOptions.Mutable folds the journal into a
// rebuilt base and serves each generation through a fresh DeltaGraph.

// DeltaGraph is an RLC-indexed graph accepting edge insertions. It is safe
// for concurrent use: queries take no locks and never wait for an insert.
type DeltaGraph = dynamic.DeltaGraph

// ErrDeletionsUnsupported is returned by DeltaGraph.RemoveEdge.
var ErrDeletionsUnsupported = dynamic.ErrDeletionsUnsupported

// NewDeltaGraph wraps an already-indexed graph for edge insertions.
func NewDeltaGraph(g *Graph, ix *Index) *DeltaGraph {
	return dynamic.New(g, ix, dynamic.Options{})
}

// BuildDeltaGraph indexes g under opts and wraps it in one step.
func BuildDeltaGraph(g *Graph, opts Options) (*DeltaGraph, error) {
	return dynamic.Build(g, opts)
}

// Query-serving layer (internal/server): a long-running HTTP/JSON service
// over the index.
type (
	// Server answers RLC queries over HTTP; see its Handler method for
	// the endpoints.
	Server = server.Server
	// ServerOptions configures NewServer; the zero value serves a
	// read-only index with GOMAXPROCS batch workers and the default batch
	// and body limits.
	ServerOptions = server.Options
	// EndpointStats is the /stats rendering of one endpoint's latency
	// histogram.
	EndpointStats = server.EndpointStats
	// Store is the server's generation store: each in-flight query keeps
	// the generation it loaded, replacements swap in atomically, and the
	// garbage collector retires an old generation after its last reader —
	// the zero-downtime hot-reload primitive behind rlcserve's SIGHUP and
	// POST /reload, and the swap every mutable-server fold goes through.
	Store = server.Store
	// UpdateResult reports one accepted Server.UpdateBatch (POST /update)
	// call: edges appended, journal length, epoch, and whether the batch
	// triggered a background fold.
	UpdateResult = server.UpdateResult
	// RebuildResult reports one completed server fold-and-rebuild —
	// returned by Server.Rebuild and delivered to ServerOptions.OnRebuild
	// (with Err set on failures).
	RebuildResult = server.RebuildResult
	// FoldPhases splits a fold's wall time into union, build, bundle and
	// swap microseconds; embedded in RebuildResult and (once a fold has
	// run) MutableServerStats.
	FoldPhases = server.FoldPhases
	// MutableServerStats is the write-path section of a mutable server's
	// /stats: epoch, journal length, accepted writes, and fold telemetry.
	MutableServerStats = server.MutableStats
)

// NewServer returns an HTTP query server over ix, rendered as a bundle once
// and served from those bytes. Start it with ListenAndServe or mount its
// Handler; stop it with Shutdown (and Close to refuse further queries).
func NewServer(ix *Index, opts ServerOptions) *Server { return server.New(ix, opts) }

// NewServerFromSnapshot returns an HTTP query server over an open snapshot
// bundle. Set ServerOptions.SnapshotSource to enable POST /reload hot
// swaps.
func NewServerFromSnapshot(snap *Snapshot, opts ServerOptions) *Server {
	return server.NewFromSnapshot(snap, opts)
}

// ExampleFig1 returns the paper's Figure 1 social/financial network.
func ExampleFig1() *Graph { return graph.Fig1() }

// ExampleFig2 returns the paper's Figure 2 running-example graph.
func ExampleFig2() *Graph { return graph.Fig2() }
