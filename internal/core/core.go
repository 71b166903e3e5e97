package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// MaxK bounds the recursive k accepted by Build. Real workloads use k <= 4
// (Section VI); 8 leaves generous headroom while keeping packed sequence
// codes in one machine word for typical label-set sizes.
const MaxK = 8

// DefaultK is the recursive k used when Options.K is zero — the value the
// paper identifies as covering practical query logs (Section VI-A).
const DefaultK = 2

// Errors returned by Build and Query.
var (
	ErrNotMinimumRepeat  = errors.New("rlc: query constraint is not a minimum repeat (L != MR(L)); the even-path fragment is out of scope")
	ErrConstraintTooLong = errors.New("rlc: query constraint longer than the index's recursive k")
	ErrUnknownLabel      = errors.New("rlc: constraint uses a label outside the graph's label set")
	ErrVertexRange       = errors.New("rlc: vertex id out of range")
	ErrEmptyConstraint   = errors.New("rlc: empty constraint")
)

// Options configures Build.
type Options struct {
	// K is the recursive k: the maximum number of concatenated labels in
	// a supported constraint. Zero means DefaultK.
	K int

	// MaxIndexBytes caps the index size (same accounting as SizeBytes; 0 =
	// unlimited). When the full index exceeds it, the builder keeps complete
	// entry lists only for the access-order prefix that fits and demotes
	// every other vertex to compact may-reach filters whose negative answers
	// are definitive; queries touching a demoted vertex fall back to an
	// exact graph traversal only when the filters cannot exclude them (see
	// tiers.go). Answers are identical to an unbudgeted index either way.
	// The cap is a target with a floor: the filter tier always keeps ~24
	// bytes per demoted vertex plus its MR-union pool, so a budget below
	// that floor yields the floor. A budget the full index already fits is
	// a no-op. Negative values are rejected by Build.
	MaxIndexBytes int64
}

func (o Options) k() int {
	if o.K == 0 {
		return DefaultK
	}
	return o.K
}

// entry is one index entry: the hub's access rank (0-based position in the
// IN-OUT order, so lists sort ascending by construction) and the interned
// minimum repeat. 8 bytes per entry, matching the paper's (vid, mr) schema.
// Entries are the build-time form only; the resident index groups them by
// hub (packed.go).
type entry struct {
	hub int32
	mr  labelseq.ID
}

// side names one of Definition 4's two label sets: Lout(v) holds the hubs v
// reaches, Lin(v) the hubs that reach v. Every per-side structure — packed
// offsets, tier unions and blooms, the builder's lists and adjacencies — is
// a [2] array indexed by side, so each check over the two sets is spelled
// once.
type side uint8

const (
	lout side = iota
	lin
)

// sides lists both sides, Lout first: the order lists are packed, tier
// filters are built and bloom blocks are laid out in.
var sides = [2]side{lout, lin}

// other returns the mirror side.
func (d side) other() side { return d ^ 1 }

// String names the side as the paper does; error texts print it.
func (d side) String() string {
	if d == lout {
		return "Lout"
	}
	return "Lin"
}

// Index is an immutable RLC index over a fixed graph. Queries are safe for
// concurrent use; building is not concurrent.
type Index struct {
	g *graph.Graph
	k int

	dict  *labelseq.Dict
	order []graph.Vertex // rank -> vertex id
	rank  []int32        // vertex id -> rank

	// packed holds every Lin/Lout list as hub-sorted (hub, MR-set) groups
	// over a hash-consed bitset pool (packed.go) — the one form queries
	// answer from and bundles store.
	packed *packed

	// tiers, when non-nil, marks a size-budgeted index (tiers.go): vertices
	// ranked at or past tiers.retainedRanks have no groups and queries
	// touching them go through may-reach filters with an exact traversal
	// fallback.
	tiers *tiers
}

// entries decodes the side-d list of v.
func (ix *Index) entries(d side, v graph.Vertex) iter.Seq[entry] {
	return ix.packed.entries(ix.packed.list(d, v))
}

// seal turns the per-vertex entry lists Build produced into the resident
// index: size budgeting first (cut selection and filter construction read the
// complete lists, then the demoted ones are dropped), then one pack of what
// is retained. A budget the full index fits leaves
// everything bit-identical to an unbudgeted build. The lists are the
// caller's to discard afterwards; seal leaves them equal to what the index
// retains.
func (ix *Index) seal(out, in [][]entry, budget int64) error {
	total := int64(0)
	for v := range out {
		total += int64(len(out[v]) + len(in[v]))
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("rlc: index has %d entries, exceeding the 2^31-1 offset limit", total)
	}
	lists := [2][][]entry{out, in}
	tr, err := ix.tier(lists, total, budget)
	if err != nil {
		return err
	}
	if tr != nil {
		for _, v := range ix.order[tr.retainedRanks:] {
			out[v], in[v] = nil, nil
		}
	}
	p, err := pack(lists, ix.dict.Len())
	if err != nil {
		return err
	}
	if err := p.verifyAgainst(lists); err != nil {
		return err
	}
	ix.packed = p
	if tr != nil {
		initTierRuntime(ix, tr)
	}
	return nil
}

// Graph returns the graph the index was built over.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// K returns the recursive k the index supports.
func (ix *Index) K() int { return ix.k }

// InClass reports whether l is in the index's query class (Section III):
// non-empty, at most k labels, and its own minimum repeat. Query answers a
// constraint in the class and refuses every other one.
func (ix *Index) InClass(l labelseq.Seq) bool {
	return len(l) <= ix.k && labelseq.IsPrimitive(l)
}

// AccessOrder returns the IN-OUT vertex order used during construction;
// element i is the vertex with access id i+1 in the paper's numbering.
func (ix *Index) AccessOrder() []graph.Vertex { return ix.order }

// NumEntries returns the total number of index entries across all Lin and
// Lout sets.
func (ix *Index) NumEntries() int64 {
	return ix.packed.numEntries[lout] + ix.packed.numEntries[lin]
}

// SizeBytes is the index size in the paper's accounting: 8 bytes per (hub,
// mr) entry plus the minimum-repeat dictionary and the per-vertex offsets.
// It is the logical size — what MaxIndexBytes is denominated in and what
// makes indexes comparable across representations; PackedStats.SizeBytes is
// the physical one. On a size-budgeted index the retained entries plus the
// filter tier are counted.
func (ix *Index) SizeBytes() int64 {
	size := ix.NumEntries()*8 + ix.fixedBytes()
	if ix.tiers != nil {
		size += ix.tiers.sizeBytes()
	}
	return size
}

// dictBytes is the accounted size of the minimum-repeat dictionary.
func (ix *Index) dictBytes() int64 {
	size := int64(0)
	for i := 0; i < ix.dict.Len(); i++ {
		size += int64(len(ix.dict.Seq(labelseq.ID(i))))*4 + 16
	}
	return size
}

// fixedBytes is the part of SizeBytes no budget can trade away: the
// dictionary and one offset array per direction.
func (ix *Index) fixedBytes() int64 {
	return ix.dictBytes() + int64(len(ix.order)+1)*2*4
}

// Stats summarizes an index for reporting.
type Stats struct {
	K           int
	Vertices    int
	Edges       int
	Entries     int64
	InEntries   int64
	OutEntries  int64
	DistinctMRs int
	SizeBytes   int64

	// Packed summarizes the physical bit-parallel representation.
	Packed PackedStats

	// Tiers summarizes the size-budgeted filter tier when present (the
	// zero value on an untiered index).
	Tiers TierStats
}

// Stats returns summary statistics.
func (ix *Index) Stats() Stats {
	out, in := ix.packed.numEntries[lout], ix.packed.numEntries[lin]
	return Stats{
		K:           ix.k,
		Vertices:    ix.g.NumVertices(),
		Edges:       ix.g.NumEdges(),
		Entries:     in + out,
		InEntries:   in,
		OutEntries:  out,
		DistinctMRs: ix.dict.Len(),
		SizeBytes:   ix.SizeBytes(),
		Packed:      ix.PackedStats(),
		Tiers:       ix.TierStats(),
	}
}

// BuildOptions returns the Options that rebuild this index: its K and, when
// it is tiered, its MaxIndexBytes — what its bundle records, so a built index
// and the index opened from its bundle agree. The mutable serving layer folds
// with them.
func (ix *Index) BuildOptions() Options {
	opts := Options{K: ix.k}
	if ix.tiers != nil {
		opts.MaxIndexBytes = ix.tiers.budget
	}
	return opts
}

// EntryView is a decoded index entry for inspection, validation and tests.
type EntryView struct {
	Hub graph.Vertex
	MR  labelseq.Seq
}

// LinEntries returns the decoded Lin(v) set: hubs in access order, minimum
// repeats in dictionary order within a hub.
func (ix *Index) LinEntries(v graph.Vertex) []EntryView { return ix.decode(ix.entries(lin, v)) }

// LoutEntries returns the decoded Lout(v) set, ordered like LinEntries.
func (ix *Index) LoutEntries(v graph.Vertex) []EntryView { return ix.decode(ix.entries(lout, v)) }

func (ix *Index) decode(list iter.Seq[entry]) []EntryView {
	var out []EntryView
	for e := range list {
		out = append(out, EntryView{Hub: ix.order[e.hub], MR: ix.dict.Seq(e.mr).Clone()})
	}
	return out
}

// Query answers the RLC query (s, t, L+) — Algorithm 1. The constraint must
// be a minimum repeat of length at most K() over the graph's labels;
// otherwise an error describes the violation. A valid query allocates
// nothing (TestQueryAllocFree, and TestTierFilterProbeAllocFree on a
// size-budgeted index); only rejection paths build errors.
func (ix *Index) Query(s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	if err := ix.checkQuery(s, t, l); err != nil {
		return false, err
	}
	mr := ix.dict.Lookup(l)
	if mr == labelseq.InvalidID {
		// No path anywhere in the graph has this k-MR, or it would have
		// been interned during construction.
		return false, nil
	}
	return ix.queryByID(s, t, mr), nil
}

// ConstraintCode returns the dictionary's packed code of a constraint Query
// has accepted — a compact, injective key for per-constraint state kept
// beside the index (the delta overlay's automaton and probe cache). It
// panics on a constraint Query would reject.
func (ix *Index) ConstraintCode(l labelseq.Seq) labelseq.Code {
	return ix.dict.Coder().Encode(l)
}

// QueryRLC is Query with a context, satisfying the facade's Querier
// interface alongside the hybrid evaluator and the serving layer. An index
// probe is two binary searches and a merge join — nanoseconds — so the
// context is consulted once on entry, never mid-probe.
func (ix *Index) QueryRLC(ctx context.Context, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return ix.Query(s, t, l)
}

// QueryStar answers the Kleene-star variant (s, t, L*), which reduces to the
// plus query after the s == t check (Section III-B).
func (ix *Index) QueryStar(s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	if err := ix.checkQuery(s, t, l); err != nil {
		return false, err
	}
	if s == t {
		return true, nil
	}
	return ix.Query(s, t, l)
}

func (ix *Index) checkQuery(s, t graph.Vertex, l labelseq.Seq) error {
	if err := ix.checkVertices(s, t); err != nil {
		return err
	}
	return ix.checkConstraint(l)
}

func (ix *Index) checkVertices(s, t graph.Vertex) error {
	if s < 0 || int(s) >= ix.g.NumVertices() || t < 0 || int(t) >= ix.g.NumVertices() {
		return fmt.Errorf("%w: s=%d t=%d n=%d", ErrVertexRange, s, t, ix.g.NumVertices())
	}
	return nil
}

// checkShape is the cheap prefix of checkConstraint: length bounds and
// label range — everything Coder.Encode needs to be safe. The batch path
// runs it per query and skips the primitivity check on memo hits.
func (ix *Index) checkShape(l labelseq.Seq) error {
	if len(l) == 0 {
		return ErrEmptyConstraint
	}
	if len(l) > ix.k {
		return fmt.Errorf("%w: |L|=%d > k=%d", ErrConstraintTooLong, len(l), ix.k)
	}
	for _, lab := range l {
		if lab < 0 || int(lab) >= ix.g.NumLabels() {
			return fmt.Errorf("%w: label %d, |L|=%d", ErrUnknownLabel, lab, ix.g.NumLabels())
		}
	}
	return nil
}

func (ix *Index) checkConstraint(l labelseq.Seq) error {
	if err := ix.checkShape(l); err != nil {
		return err
	}
	if !labelseq.IsPrimitive(l) {
		return fmt.Errorf("%w: %v", ErrNotMinimumRepeat, l)
	}
	return nil
}

// queryByID is the hot path of Query and QueryBatch: Case 2 (direct groups)
// then Case 1 (merge join), all membership via AND/shift. During
// construction the equivalent PR1 check runs against the builder's mutable
// per-vertex lists instead (see builder.insert). On a size-budgeted index,
// queries touching a demoted vertex dispatch to the three-tier path
// (tiers.go) instead; both endpoints retained stays the plain exact probe
// (their lists are complete).
func (ix *Index) queryByID(s, t graph.Vertex, mr labelseq.ID) bool {
	if tr := ix.tiers; tr != nil {
		if ix.rank[s] >= tr.retainedRanks || ix.rank[t] >= tr.retainedRanks {
			return ix.queryTiered(s, t, mr)
		}
		tr.exactHits.Add(1)
	}
	p := ix.packed
	outS, inT := p.list(lout, s), p.list(lin, t)
	if p.groupHas(outS, ix.rank[t], mr) || p.groupHas(inT, ix.rank[s], mr) {
		return true
	}
	return p.joinGroups(outS, inT, mr)
}
