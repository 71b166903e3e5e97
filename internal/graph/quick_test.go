package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

// rawEdges is the quick-generated input shape: a bounded edge list encoded
// as byte triples.
type rawEdges []byte

func (r rawEdges) graph() *Graph {
	b := NewBuilder(16, 4)
	for i := 0; i+2 < len(r); i += 3 {
		b.AddEdge(Vertex(r[i]%16), Label(r[i+1]%4), Vertex(r[i+2]%16))
	}
	return b.Build()
}

// TestQuickBuilderInvariants checks structural invariants of the CSR for
// arbitrary edge lists: degree sums equal the edge count on both sides,
// adjacency stays sorted, and HasEdge agrees with the edge enumeration.
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(raw rawEdges) bool {
		g := raw.graph()
		sumOut, sumIn := 0, 0
		for v := Vertex(0); int(v) < g.NumVertices(); v++ {
			sumOut += g.OutDegree(v)
			sumIn += g.InDegree(v)
			dsts, lbls := g.OutEdges(v)
			for i := 1; i < len(dsts); i++ {
				if dsts[i-1] > dsts[i] || (dsts[i-1] == dsts[i] && lbls[i-1] >= lbls[i]) {
					return false
				}
			}
		}
		if sumOut != g.NumEdges() || sumIn != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.Src, e.Label, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickTextRoundTrip: writing and re-reading any generated graph
// preserves the edge set.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(raw rawEdges) bool {
		g := raw.graph()
		if g.NumEdges() == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.Src, e.Label, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickAdoptedInAdjacency: the in-adjacency AdoptCSR derives from any
// generated graph's out-adjacency is its transpose, each run sorted by
// (src, label), whatever the parallel edges and self-loops.
func TestQuickAdoptedInAdjacency(t *testing.T) {
	f := func(raw rawEdges) bool {
		g := raw.graph()
		a, err := AdoptCSR(g.NumVertices(), g.NumLabels(), g.RawCSR(), nil, nil)
		if err != nil {
			return false
		}
		want := make([][]Edge, g.NumVertices())
		for _, e := range g.Edges() { // (src, dst, label) order
			want[e.Dst] = append(want[e.Dst], e)
		}
		for v := Vertex(0); int(v) < g.NumVertices(); v++ {
			srcs, lbls := a.InEdges(v)
			if len(srcs) != len(want[v]) || a.InDegree(v) != len(want[v]) {
				return false
			}
			for i, e := range want[v] {
				if srcs[i] != e.Src || lbls[i] != e.Label {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
