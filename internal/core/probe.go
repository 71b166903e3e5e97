package core

import (
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Probe precomputes one endpoint's side of Query so that many candidates for
// the other endpoint can be tested with one pass over their list each: a
// target probe fixes (·, t, L+) and scans each source's Lout, a source probe
// fixes (s, ·, L+) and scans each target's Lin. The hybrid evaluator of
// extended queries (Q4-style, Section VI-C) probes every frontier vertex
// against one fixed endpoint, which this amortizes.
type Probe struct {
	ix    *Index
	fixed graph.Vertex
	d     side // the fixed endpoint's side: Lin for a target probe, Lout for a source probe
	mr    labelseq.ID
	rank  int32 // rank of fixed
	// hubs is a bitmap over access ranks: bit h set iff (hub h, L) is on
	// the fixed endpoint's side-d list. Case 1 tests the candidate's hubs
	// against it; Case 2 tests the candidate's rank itself.
	hubs  []uint64
	valid bool
}

// NewTargetProbe prepares a probe for Query(·, t, l). The constraint is
// validated like a regular query (with s := t, which shares the same vertex
// check).
func (ix *Index) NewTargetProbe(t graph.Vertex, l labelseq.Seq) (*Probe, error) {
	return ix.newProbe(t, lin, l)
}

// NewSourceProbe prepares a probe for Query(s, ·, l).
func (ix *Index) NewSourceProbe(s graph.Vertex, l labelseq.Seq) (*Probe, error) {
	return ix.newProbe(s, lout, l)
}

func (ix *Index) newProbe(fixed graph.Vertex, d side, l labelseq.Seq) (*Probe, error) {
	if err := ix.checkQuery(fixed, fixed, l); err != nil {
		return nil, err
	}
	p := &Probe{ix: ix, fixed: fixed, d: d, rank: ix.rank[fixed]}
	p.mr = ix.dict.Lookup(l)
	if p.mr == labelseq.InvalidID {
		// No path in the graph carries this k-MR: every probe is false.
		return p, nil
	}
	p.valid = true
	p.hubs = make([]uint64, (ix.g.NumVertices()+63)/64)
	for _, g := range ix.packed.list(d, fixed) {
		if ix.packed.has(g.set, p.mr) {
			p.hubs[g.hub>>6] |= 1 << uint(g.hub&63)
		}
	}
	return p, nil
}

// Reaches reports whether x reaches the fixed target (a target probe) or the
// fixed source reaches x (a source probe) under L+, in one pass over x's list
// on the other side. On a size-budgeted index a demoted endpoint's lists are
// dropped, so the precomputed bitmap and the scan would silently miss
// entries; those probes delegate to the exact three-tier query path instead.
func (p *Probe) Reaches(x graph.Vertex) bool {
	if !p.valid {
		return false
	}
	rx := p.ix.rank[x]
	if tr := p.ix.tiers; tr != nil && (p.rank >= tr.retainedRanks || rx >= tr.retainedRanks) {
		if p.d == lin {
			return p.ix.queryByID(x, p.fixed, p.mr)
		}
		return p.ix.queryByID(p.fixed, x, p.mr)
	}
	// Case 2: x is a hub of the fixed endpoint's list.
	if p.hubs[rx>>6]&(1<<uint(rx&63)) != 0 {
		return true
	}
	pk := p.ix.packed
	for _, g := range pk.list(p.d.other(), x) {
		// Case 2: the fixed endpoint is a hub of x's list; Case 1: a hub
		// shared with the fixed endpoint's list.
		if (g.hub == p.rank || p.hubs[g.hub>>6]&(1<<uint(g.hub&63)) != 0) && pk.has(g.set, p.mr) {
			return true
		}
	}
	return false
}
