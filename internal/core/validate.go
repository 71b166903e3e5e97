package core

import (
	"fmt"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// This file ships the invariant validators used by the test suite and
// available to users who want to double-check an index against its graph.
// ValidateSound and ValidateComplete run online traversals per entry/query,
// so they are meant for moderate graph sizes.

// ValidateSound checks that every index entry is witnessed by an actual
// path: (w, L) ∈ Lout(v) requires v ⇝ w under L+, and (u, L) ∈ Lin(v)
// requires u ⇝ v under L+.
func (ix *Index) ValidateSound() error {
	ev := traversal.NewEvaluator(ix.g)
	nfas := make(map[labelseq.ID]*automaton.NFA)
	nfaOf := func(id labelseq.ID) (*automaton.NFA, error) {
		if n, ok := nfas[id]; ok {
			return n, nil
		}
		n, err := automaton.NewPlus(ix.dict.Seq(id), ix.g.NumLabels())
		if err != nil {
			return nil, err
		}
		nfas[id] = n
		return n, nil
	}
	for v := 0; v < ix.g.NumVertices(); v++ {
		for e := range ix.lout(graph.Vertex(v)) {
			hub := ix.order[e.hub]
			nfa, err := nfaOf(e.mr)
			if err != nil {
				return err
			}
			if !ev.BFS(graph.Vertex(v), hub, nfa) {
				return fmt.Errorf("rlc: unsound entry (%d, %v) in Lout(%d): no such path", hub, ix.dict.Seq(e.mr), v)
			}
		}
		for e := range ix.lin(graph.Vertex(v)) {
			hub := ix.order[e.hub]
			nfa, err := nfaOf(e.mr)
			if err != nil {
				return err
			}
			if !ev.BFS(hub, graph.Vertex(v), nfa) {
				return fmt.Errorf("rlc: unsound entry (%d, %v) in Lin(%d): no such path", hub, ix.dict.Seq(e.mr), v)
			}
		}
	}
	return nil
}

// ValidateComplete exhaustively compares the index against online traversal
// for every vertex pair and every primitive constraint of length up to k.
// Cost is O(n^2 · |L|^k · traversal); use small graphs.
func (ix *Index) ValidateComplete() error {
	ev := traversal.NewEvaluator(ix.g)
	n := ix.g.NumVertices()
	for _, l := range PrimitiveConstraints(ix.g.NumLabels(), ix.k) {
		nfa, err := automaton.NewPlus(l, ix.g.NumLabels())
		if err != nil {
			return err
		}
		for s := graph.Vertex(0); int(s) < n; s++ {
			for t := graph.Vertex(0); int(t) < n; t++ {
				want := ev.BFS(s, t, nfa)
				got, qerr := ix.Query(s, t, l)
				if qerr != nil {
					return qerr
				}
				if got != want {
					return fmt.Errorf("rlc: incomplete/unsound index: Query(%d, %d, %v+) = %v, traversal says %v", s, t, l, got, want)
				}
			}
		}
	}
	return nil
}

// ValidateCondensed checks Definition 5: no reachability fact is recorded
// both directly and through a hub. For a direct entry (t, L) ∈ Lout(s) the
// trivial witnesses u = t (the entry itself plus a cycle entry at t) and the
// dual direct entry are what the definition's spirit rules out; we flag a
// violation when a hub u distinct from both endpoints covers the same fact,
// or when both direct entries exist simultaneously.
func (ix *Index) ValidateCondensed() error {
	for v := 0; v < ix.g.NumVertices(); v++ {
		// Direct entries recorded as (t, L) ∈ Lout(s) with s = v.
		for e := range ix.lout(graph.Vertex(v)) {
			s := graph.Vertex(v)
			t := ix.order[e.hub]
			if err := ix.checkNotCovered(s, t, e.mr, "Lout"); err != nil {
				return err
			}
		}
		// Direct entries recorded as (s, L) ∈ Lin(t) with t = v.
		for e := range ix.lin(graph.Vertex(v)) {
			s := ix.order[e.hub]
			t := graph.Vertex(v)
			if err := ix.checkNotCovered(s, t, e.mr, "Lin"); err != nil {
				return err
			}
			// Both direct forms for the same fact is double recording,
			// except for the degenerate s == t cycles where the two
			// lists describe the same vertex.
			if s != t && ix.loutHas(s, ix.rank[t], e.mr) {
				return fmt.Errorf("rlc: not condensed: (%d,%v) recorded in both Lout(%d) and Lin(%d)",
					t, ix.dict.Seq(e.mr), s, t)
			}
		}
	}
	return nil
}

func (ix *Index) checkNotCovered(s, t graph.Vertex, mr labelseq.ID, kind string) error {
	p := ix.packed
	a, b := p.lout(s), p.lin(t)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hub < b[j].hub:
			i++
		case a[i].hub > b[j].hub:
			j++
		default:
			u := ix.order[a[i].hub]
			if p.has(a[i].set, mr) && p.has(b[j].set, mr) && u != s && u != t {
				return fmt.Errorf("rlc: not condensed: %s entry for (%d ⇝ %d, %v) also covered via hub %d",
					kind, s, t, ix.dict.Seq(mr), u)
			}
			i++
			j++
		}
	}
	return nil
}

// PrimitiveConstraints enumerates every primitive label sequence (L = MR(L))
// over numLabels labels with length in [1, k], in lexicographic order. These
// are exactly the admissible RLC constraints of Definition 1.
func PrimitiveConstraints(numLabels, k int) []labelseq.Seq {
	var out []labelseq.Seq
	var gen func(prefix labelseq.Seq)
	gen = func(prefix labelseq.Seq) {
		if len(prefix) > 0 && labelseq.IsPrimitive(prefix) {
			out = append(out, prefix.Clone())
		}
		if len(prefix) == k {
			return
		}
		for l := 0; l < numLabels; l++ {
			gen(append(prefix, labelseq.Label(l)))
		}
	}
	gen(labelseq.Seq{})
	return out
}
