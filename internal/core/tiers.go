package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// Size-budgeted index tiers (FERRARI-style, adapted to RLC labels).
//
// An unbudgeted index stores the full Lin/Lout entry lists of every vertex.
// Options.MaxIndexBytes caps that: the builder retains full (packed) lists
// only for the vertices at the front of the access order — the hub ordering
// already ranks vertices by how much reachability their lists cover, and in
// a pruned 2-hop labeling the top-ranked hubs also have the *smallest*
// lists, so the budget's exact tier is precisely where entries pay off most.
// Every other vertex is demoted: its lists are dropped from the index and
// replaced by two compact may-reach filters whose negative answers are
// definitive:
//
//   - a hash-consed MR-union bitset per side — the OR of the dropped
//     list's MR ids, interned in a tier-local setPool by the same conser as
//     the packed form's MR-sets (demoted vertices massively repeat union
//     shapes);
//   - a per-side block Bloom filter over the dropped (hub, mr) pairs —
//     bloomWords 64-bit words per block, two probes per key, sized to the
//     budget left after the exact tier and the unions.
//
// The query path becomes three-tier. Both endpoints retained: the normal
// exact probe on complete lists (tier 1). Any endpoint demoted: the filter
// probe (tier 2) — every structure over-approximates the dropped lists, so
// an all-negative probe is a definitive FALSE, a hit on the *retained* side's
// complete list is a definitive TRUE, and only a genuine "maybe" falls
// through to tier 3, an exact product-BFS traversal over the graph. Per-tier
// atomic counters make the filter's false-positive rate observable in
// /stats.
//
// Demotion is physical: the filters are built from the builder's complete
// entry lists, then the demoted lists are dropped before the index is
// packed, so NumEntries, SizeBytes and serialization all reflect the budget
// automatically. The budget is a target with a
// floor: the exact tier never exceeds it, but the filter tier always keeps
// at least one bloom word per block (~24 bytes/vertex plus the union pool),
// so a budget below that floor yields the floor, never an unsound index.

// tierVerdict is the outcome of a filter probe.
type tierVerdict uint8

const (
	tierFalse tierVerdict = iota // definitive: no structure admits the query
	tierTrue                     // definitive: found on a retained, complete list
	tierMaybe                    // filters cannot exclude it: traverse
)

// tiers is the filter tier of a size-budgeted index. Ranks [0, retainedRanks)
// keep their full entry lists; every demoted vertex v occupies slot
// rank[v]-retainedRanks in the union and bloom arrays (the rank prefix makes
// slots contiguous — no id map).
type tiers struct {
	retainedRanks int32  // ranks below this keep full lists
	budget        int64  // the configured Options.MaxIndexBytes
	bloomWords    uint32 // 64-bit words per bloom block; power of two in [1, 64]

	union   [2][]uint32 // per side: slot -> union set id over the dropped list's MRs (emptySet = none)
	setPool             // tier-local hash-consed union pool
	bloom   []uint64    // the side-d block of slot s is block (2s+d); bloomWords words each

	exactHits      atomic.Int64 // tier-1 answers (complete-list probe decided)
	filterDefinite atomic.Int64 // tier-2 answers (filters decided without traversal)
	filterMaybe    atomic.Int64 // tier-3 answers (filters said maybe; traversal ran)

	// Tier-3 machinery: one lazily compiled NFA per interned MR (queries only
	// reach the fallback with MRs the dictionary maps, which are exactly the
	// validated constraint they looked up), and a pool of reusable traversal
	// evaluators (an Evaluator is not concurrent-safe; queries are).
	nfas  []atomic.Pointer[automaton.NFA]
	evals sync.Pool
}

// slotOf returns the demoted slot of rank r.
func (tr *tiers) slotOf(r int32) int32 { return r - tr.retainedRanks }

// block returns the bloom block guarding the dropped side-d list of slot.
func (tr *tiers) block(d side, slot int32) []uint64 {
	w := int64(tr.bloomWords)
	off := (2*int64(slot) + int64(d)) * w
	return tr.bloom[off : off+w]
}

// mix64 is the splitmix64 finalizer — the bloom key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bloomHas probes block for the (hub, mr) key: two bits derived from one
// 64-bit hash (low and high halves — blocks are at most 4096 bits, so the
// halves are independent). False means the dropped list definitively did not
// carry (hub, mr); true means maybe.
func (tr *tiers) bloomHas(block []uint64, hub uint32, mr labelseq.ID) bool {
	h := mix64(uint64(hub)<<32 | uint64(uint32(mr)))
	mask := uint64(len(block))*64 - 1
	b1, b2 := h&mask, (h>>32)&mask
	return block[b1>>6]>>(b1&63)&1 != 0 && block[b2>>6]>>(b2&63)&1 != 0
}

// bloomAdd inserts the (hub, mr) key — the build-time mirror of bloomHas.
func (tr *tiers) bloomAdd(block []uint64, hub uint32, mr labelseq.ID) {
	h := mix64(uint64(hub)<<32 | uint64(uint32(mr)))
	mask := uint64(len(block))*64 - 1
	b1, b2 := h&mask, (h>>32)&mask
	block[b1>>6] |= 1 << (b1 & 63)
	block[b2>>6] |= 1 << (b2 & 63)
}

// sizeBytes is the resident size of the filter tier: union slot arrays,
// descriptors, pool words, bloom blocks, and the fixed meta record.
func (tr *tiers) sizeBytes() int64 {
	return int64(len(tr.union[lout])+len(tr.union[lin]))*4 + tr.setPool.sizeBytes() +
		int64(len(tr.bloom))*8 + tierMetaSize
}

// initTierRuntime attaches tr to ix and wires the tier-3 fallback machinery
// (shared by Build and the snapshot open path).
func initTierRuntime(ix *Index, tr *tiers) {
	tr.nfas = make([]atomic.Pointer[automaton.NFA], ix.dict.Len())
	g := ix.g
	tr.evals.New = func() any { return traversal.NewEvaluator(g) }
	ix.tiers = tr
}

// Tiered reports whether the index is size-budgeted: demoted vertices answer
// through may-reach filters with an exact traversal fallback. False for
// unbudgeted indexes and for budgets large enough to retain every vertex.
func (ix *Index) Tiered() bool { return ix.tiers != nil }

// TierStats summarizes the filter tier and its hit counters for reporting.
type TierStats struct {
	// Budget is the configured MaxIndexBytes (0 on an untiered index).
	Budget int64
	// RetainedVertices keep full entry lists; DemotedVertices answer through
	// filters. Retained+Demoted equals the vertex count on a tiered index.
	RetainedVertices int
	DemotedVertices  int
	// FilterBytes is the resident size of the filter tier (unions, blooms,
	// slot arrays, meta).
	FilterBytes int64
	// UnionSets is the number of distinct hash-consed MR-union sets.
	UnionSets int
	// BloomBitsPerFilter is the size of one per-vertex, per-side bloom
	// block in bits.
	BloomBitsPerFilter int
	// ExactHits counts queries decided on complete lists (tier 1, including
	// definitive TRUEs found on the retained side of a mixed query);
	// FilterDefinite counts queries the filters decided without traversal;
	// FilterMaybe counts queries that fell through to the exact traversal.
	ExactHits      int64
	FilterDefinite int64
	FilterMaybe    int64
}

// TierStats returns the filter tier's summary; the zero value when the index
// is not tiered.
func (ix *Index) TierStats() TierStats {
	tr := ix.tiers
	if tr == nil {
		return TierStats{}
	}
	return TierStats{
		Budget:             tr.budget,
		RetainedVertices:   int(tr.retainedRanks),
		DemotedVertices:    len(tr.union[lout]),
		FilterBytes:        tr.sizeBytes(),
		UnionSets:          len(tr.desc),
		BloomBitsPerFilter: int(tr.bloomWords) * 64,
		ExactHits:          tr.exactHits.Load(),
		FilterDefinite:     tr.filterDefinite.Load(),
		FilterMaybe:        tr.filterMaybe.Load(),
	}
}

// queryTiered answers a query with at least one demoted endpoint: filter
// probe first, exact traversal only on "maybe" — tier 3, a bidirectional
// product search on the traversal kernel. Evaluators are pooled because one
// is not concurrent-safe but queries are; a warm one searches without
// allocating, and counter increments are atomic adds:
// TestTierFilterProbeAllocFree holds the whole path to no allocation.
func (ix *Index) queryTiered(s, t graph.Vertex, mr labelseq.ID) bool {
	tr := ix.tiers
	switch ix.probeTiered(s, t, mr) {
	case tierTrue:
		tr.exactHits.Add(1)
		return true
	case tierFalse:
		tr.filterDefinite.Add(1)
		return false
	}
	tr.filterMaybe.Add(1)
	nfa := tr.nfas[mr].Load()
	if nfa == nil {
		if nfa = ix.compileFallback(mr); nfa == nil { // lazy NFA compile, once per interned MR
			return false
		}
	}
	ev := tr.evals.Get().(*traversal.Evaluator)
	ok := ev.BiBFS(s, t, nfa)
	tr.evals.Put(ev)
	return ok
}

// probeTiered runs the tier-2 filter probe for a query with at least one
// demoted endpoint. Soundness: a retained vertex's lists are complete, so a
// hit there is a definitive TRUE; every filter over-approximates the dropped
// list it stands in for, so a probe that excludes Case 2 on both sides and
// Case 1 (Definition 4) is a definitive FALSE.
func (ix *Index) probeTiered(s, t graph.Vertex, mr labelseq.ID) tierVerdict {
	tr := ix.tiers
	r := tr.retainedRanks
	rs, rt := ix.rank[s], ix.rank[t]
	switch {
	case rs < r: // s retained, t demoted
		return ix.probeHalf(s, lout, rt, mr)
	case rt < r: // t retained, s demoted
		return ix.probeHalf(t, lin, rs, mr)
	default: // both demoted
		ss, ts := tr.slotOf(rs), tr.slotOf(rt)
		outHas := tr.has(tr.union[lout][ss], mr)
		inHas := tr.has(tr.union[lin][ts], mr)
		// Case 1 needs mr on both dropped lists; the unions cannot localize
		// the common hub, so both present is already a maybe.
		if outHas && inHas {
			return tierMaybe
		}
		// Case 2 either way: (rank(t), mr) ∈ Lout(s) / (rank(s), mr) ∈ Lin(t).
		if outHas && tr.bloomHas(tr.block(lout, ss), uint32(rt), mr) {
			return tierMaybe
		}
		if inHas && tr.bloomHas(tr.block(lin, ts), uint32(rs), mr) {
			return tierMaybe
		}
		return tierFalse
	}
}

// probeHalf is probeTiered with one endpoint retained: v, whose side-d list
// is complete, and the demoted other endpoint of rank ro, whose dropped list
// on the other side only the filters stand for (d is Lout when v is the
// source, Lin when it is the target).
func (ix *Index) probeHalf(v graph.Vertex, d side, ro int32, mr labelseq.ID) tierVerdict {
	p, tr := ix.packed, ix.tiers
	list := p.list(d, v)
	// Case 2 on v's side: (ro, mr) on its complete list — exact.
	if p.groupHas(list, ro, mr) {
		return tierTrue
	}
	slot := tr.slotOf(ro)
	if !tr.has(tr.union[d.other()][slot], mr) {
		// The dropped list carried no entry with this MR at all: no Case 2
		// on the demoted side and no Case 1 either.
		return tierFalse
	}
	block := tr.block(d.other(), slot)
	// Case 2 on the demoted side: (rank(v), mr) on the dropped list?
	if tr.bloomHas(block, uint32(ix.rank[v]), mr) {
		return tierMaybe
	}
	// Case 1: a hub carrying mr on v's complete list that the dropped
	// list's bloom cannot exclude.
	for _, g := range list {
		if p.has(g.set, mr) && tr.bloomHas(block, uint32(g.hub), mr) {
			return tierMaybe
		}
	}
	return tierFalse
}

// compileFallback compiles and caches the tier-3 automaton of one interned
// MR. Interned sequences are non-empty, at most k long, and in label range
// (Build interns only validated sequences; decodeDict enforces the same
// bounds), so the compile cannot fail — but a corrupt in-memory state must
// degrade to the safe answer for the query semantics, which for an
// uncompilable constraint is "no path": nil.
func (ix *Index) compileFallback(mr labelseq.ID) *automaton.NFA {
	nfa, err := automaton.NewPlus(ix.dict.Seq(mr), max(ix.g.NumLabels(), 1))
	if err != nil {
		return nil
	}
	ix.tiers.nfas[mr].Store(nfa)
	return nfa
}

// tierSlotBytes is the per-demoted-vertex space the filter tier always
// keeps regardless of content: two u32 union slots plus two one-word bloom
// blocks.
const tierSlotBytes = 2*4 + 2*8

// tier decides which vertices a MaxIndexBytes budget demotes and builds
// their filters from the builder's complete per-vertex entry lists (total
// entries across them); nil when the index stays untiered. size(r) is the
// EXACT tiered size at the minimum bloom width when ranks [r, n) are
// demoted: hash-consed union-pool totals depend only on the set of distinct
// windows, not insertion order, so the walk from r = n-1 down to 0 can
// maintain them incrementally in a scratch conser and read off the real
// size at every candidate cut. The builder keeps the largest exact prefix
// whose size fits the budget, and when even the cheapest layout exceeds the
// budget (the floor case) it takes the size-minimizing cut instead.
//
// That makes the built size monotone in the budget and bounded by
// min(full, max(budget, floor)): with cuts chosen by exact size, a looser
// budget either keeps the same cut (and can only grow the bloom blocks
// into its larger residual) or moves to a higher cut whose size already
// exceeds everything the tighter budget could build. On graphs whose
// entry lists are smaller than a filter — where even the floor layout
// would exceed the unbudgeted index — the builder refuses to tier at all:
// a size budget must never produce a larger index. A budget that fits the
// whole index is a no-op: the index stays bit-identical to an unbudgeted
// build.
func (ix *Index) tier(lists [2][][]entry, total, budget int64) (*tiers, error) {
	// Fixed costs (dictionary, offset arrays) live outside the tier
	// trade-off but inside SizeBytes, which the budget is denominated in.
	fixed := ix.fixedBytes()
	fullSize := fixed + total*8
	if budget <= 0 || budget >= fullSize {
		return nil, nil // no budget, or the whole index fits
	}
	n := len(ix.order)
	listBytes := func(v graph.Vertex) int64 { return int64(len(lists[lout][v])+len(lists[lin][v])) * 8 }

	// Selection: walk the cut down from n, consing each newly demoted
	// vertex's unions so size(r) is exact.
	sel := newConser(ix.dict.Len())
	prefixEntryBytes := total * 8
	retained, best, bestSize := -1, n-1, int64(math.MaxInt64)
	for r := n - 1; r >= 0; r-- {
		v := ix.order[r]
		for _, d := range sides {
			if _, err := sel.intern(lists[d][v]); err != nil {
				return nil, err
			}
		}
		prefixEntryBytes -= listBytes(v)
		size := fixed + prefixEntryBytes + int64(n-r)*tierSlotBytes + sel.pool.sizeBytes() + tierMetaSize
		if size <= budget {
			retained = r
			break
		}
		if size < bestSize {
			best, bestSize = r, size
		}
	}
	if retained < 0 {
		if bestSize >= fullSize {
			// Even the cheapest tiered layout is no smaller than the full
			// index: the per-vertex filter floor exceeds what demotion
			// saves. Tiering would grow the index while costing exactness
			// of the fast path, so keep the whole index instead.
			return nil, nil
		}
		retained = best // floor: no cut fits, take the smallest layout
	}
	exactBytes := int64(0)
	for _, v := range ix.order[:retained] {
		exactBytes += listBytes(v)
	}
	demoted := ix.order[retained:]
	tr := &tiers{retainedRanks: int32(retained), budget: budget}

	// MR-union bitsets over the dropped lists. The pool totals match the
	// selection walk's (same distinct-window set), only the ids are assigned
	// in slot order here.
	c := newConser(ix.dict.Len())
	for _, d := range sides {
		tr.union[d] = make([]uint32, len(demoted))
	}
	for slot, v := range demoted {
		for _, d := range sides {
			var err error
			if tr.union[d][slot], err = c.intern(lists[d][v]); err != nil {
				return nil, err
			}
		}
	}
	tr.setPool = c.pool

	// Bloom blocks: the largest power-of-two word count the residual budget
	// affords, clamped to [1, 64] words ([64, 4096] bits) per block.
	blocks := 2 * int64(len(demoted))
	unionBytes := blocks*4 + tr.setPool.sizeBytes()
	residual := budget - fixed - exactBytes - unionBytes - tierMetaSize
	bloomWords := uint32(1)
	for bloomWords < 64 && blocks*int64(bloomWords*2)*8 <= residual {
		bloomWords *= 2
	}
	tr.bloomWords = bloomWords
	tr.bloom = make([]uint64, blocks*int64(bloomWords))
	for slot, v := range demoted {
		for _, d := range sides {
			block := tr.block(d, int32(slot))
			for _, e := range lists[d][v] {
				tr.bloomAdd(block, uint32(e.hub), e.mr)
			}
		}
	}
	return tr, nil
}

// verifyTiers checks the tier block's semantic consistency with the packed
// groups: every demoted vertex of a tiered index must have none (a bundle
// assembled from mismatched halves — a tier block claiming one retention
// split stapled to groups from another — checksums clean but would answer
// from lists the filters do not cover).
func (ix *Index) verifyTiers() error {
	tr := ix.tiers
	if tr == nil {
		return nil
	}
	for r := int(tr.retainedRanks); r < len(ix.order); r++ {
		v := ix.order[r]
		if len(ix.packed.list(lout, v)) != 0 || len(ix.packed.list(lin, v)) != 0 {
			return fmt.Errorf("rlc: tier block retains %d ranks but demoted vertex %d (rank %d) still has entries",
				tr.retainedRanks, v, r)
		}
	}
	return nil
}
