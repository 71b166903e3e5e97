package core

import (
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TargetProbe precomputes the target side of Query(·, t, L+) so that many
// candidate sources can be tested with one pass over their Lout list each.
// The hybrid evaluator of extended queries (Q4-style, Section VI-C) probes
// every frontier vertex against a fixed (t, L+), which this amortizes.
type TargetProbe struct {
	ix    *Index
	t     graph.Vertex
	mr    labelseq.ID
	rankT int32
	// hubs is a bitmap over access ranks: bit h set iff (hub h, L) ∈
	// Lin(t). Case 1 tests Lout(s) hubs against it; case 2 tests rank(s)
	// itself (an entry (s, L) ∈ Lin(t) has hub rank(s)).
	hubs  []uint64
	valid bool
}

// NewTargetProbe prepares a probe for Query(·, t, l). The constraint is
// validated like a regular query (with s := t, which shares the same vertex
// check).
func (ix *Index) NewTargetProbe(t graph.Vertex, l labelseq.Seq) (*TargetProbe, error) {
	if err := ix.checkQuery(t, t, l); err != nil {
		return nil, err
	}
	p := &TargetProbe{ix: ix, t: t, rankT: ix.rank[t]}
	p.mr = ix.dict.Lookup(l)
	if p.mr == labelseq.InvalidID {
		// No path in the graph carries this k-MR: every probe is false.
		return p, nil
	}
	p.valid = true
	p.hubs = make([]uint64, (ix.g.NumVertices()+63)/64)
	for _, g := range ix.packed.lin(t) {
		if ix.packed.has(g.set, p.mr) {
			p.hubs[g.hub>>6] |= 1 << uint(g.hub&63)
		}
	}
	return p, nil
}

// Reaches reports whether Query(s, t, L+) holds, in one pass over Lout(s).
// On a size-budgeted index a demoted endpoint's lists are dropped, so the
// precomputed bitmap and the Lout scan would silently miss entries; those
// probes delegate to the exact three-tier query path instead.
func (p *TargetProbe) Reaches(s graph.Vertex) bool {
	if !p.valid {
		return false
	}
	if tr := p.ix.tiers; tr != nil &&
		(p.rankT >= tr.retainedRanks || p.ix.rank[s] >= tr.retainedRanks) {
		return p.ix.queryByID(s, p.t, p.mr)
	}
	// Case 2: (s, L) ∈ Lin(t).
	rs := p.ix.rank[s]
	if p.hubs[rs>>6]&(1<<uint(rs&63)) != 0 {
		return true
	}
	pk := p.ix.packed
	for _, g := range pk.lout(s) {
		// Case 2: (t, L) ∈ Lout(s); Case 1: shared hub with Lin(t).
		if (g.hub == p.rankT || p.hubs[g.hub>>6]&(1<<uint(g.hub&63)) != 0) && pk.has(g.set, p.mr) {
			return true
		}
	}
	return false
}

// SourceProbe is the mirror of TargetProbe: it precomputes the source side
// of Query(s, ·, L+) so that many candidate targets can be tested with one
// pass over their Lin list each.
type SourceProbe struct {
	ix    *Index
	s     graph.Vertex
	mr    labelseq.ID
	rankS int32
	// hubs is a bitmap over access ranks: bit h set iff (hub h, L) ∈
	// Lout(s).
	hubs  []uint64
	valid bool
}

// NewSourceProbe prepares a probe for Query(s, ·, l).
func (ix *Index) NewSourceProbe(s graph.Vertex, l labelseq.Seq) (*SourceProbe, error) {
	if err := ix.checkQuery(s, s, l); err != nil {
		return nil, err
	}
	p := &SourceProbe{ix: ix, s: s, rankS: ix.rank[s]}
	p.mr = ix.dict.Lookup(l)
	if p.mr == labelseq.InvalidID {
		return p, nil
	}
	p.valid = true
	p.hubs = make([]uint64, (ix.g.NumVertices()+63)/64)
	for _, g := range ix.packed.lout(s) {
		if ix.packed.has(g.set, p.mr) {
			p.hubs[g.hub>>6] |= 1 << uint(g.hub&63)
		}
	}
	return p, nil
}

// Reaches reports whether Query(s, t, L+) holds, in one pass over Lin(t).
// Like TargetProbe.Reaches, probes touching a demoted vertex of a
// size-budgeted index delegate to the exact three-tier query path.
func (p *SourceProbe) Reaches(t graph.Vertex) bool {
	if !p.valid {
		return false
	}
	if tr := p.ix.tiers; tr != nil &&
		(p.rankS >= tr.retainedRanks || p.ix.rank[t] >= tr.retainedRanks) {
		return p.ix.queryByID(p.s, t, p.mr)
	}
	// Case 2: (t, L) ∈ Lout(s).
	rt := p.ix.rank[t]
	if p.hubs[rt>>6]&(1<<uint(rt&63)) != 0 {
		return true
	}
	pk := p.ix.packed
	for _, g := range pk.lin(t) {
		// Case 2: (s, L) ∈ Lin(t); Case 1: shared hub with Lout(s).
		if (g.hub == p.rankS || p.hubs[g.hub>>6]&(1<<uint(g.hub&63)) != 0) && pk.has(g.set, p.mr) {
			return true
		}
	}
	return false
}
