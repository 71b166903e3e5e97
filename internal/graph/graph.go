package graph

import (
	"fmt"
	"sort"

	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Label re-exports the label type used across the module.
type Label = labelseq.Label

// Vertex identifies a vertex by its dense 0-based id.
type Vertex = int32

// Edge is a single directed labeled edge.
type Edge struct {
	Src   Vertex
	Dst   Vertex
	Label Label
}

// Graph is an immutable edge-labeled directed graph in CSR form.
// Construct one with a Builder, a generator, or a loader.
type Graph struct {
	n         int
	numLabels int

	// Out-adjacency: edges leaving v are outDst[outOff[v]:outOff[v+1]]
	// with labels outLbl at the same positions, sorted by (dst, label).
	outOff []int64
	outDst []Vertex
	outLbl []Label

	// In-adjacency, the transpose of out (fillIn), sorted by (src, label).
	inOff []int64
	inSrc []Vertex
	inLbl []Label

	// Optional display names; nil when not set.
	vertexNames []string
	labelNames  []string
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| after duplicate removal.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// NumLabels returns |L|, the size of the label set.
func (g *Graph) NumLabels() int { return g.numLabels }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v Vertex) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v Vertex) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutEdges returns the targets and labels of edges leaving v. The returned
// slices are views into the graph and must not be mutated.
func (g *Graph) OutEdges(v Vertex) ([]Vertex, []Label) {
	lo, hi := g.outOff[v], g.outOff[v+1]
	return g.outDst[lo:hi], g.outLbl[lo:hi]
}

// InEdges returns the sources and labels of edges entering v. The returned
// slices are views into the graph and must not be mutated.
func (g *Graph) InEdges(v Vertex) ([]Vertex, []Label) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inSrc[lo:hi], g.inLbl[lo:hi]
}

// HasEdge reports whether the edge (src, label, dst) exists.
func (g *Graph) HasEdge(src Vertex, label Label, dst Vertex) bool {
	dsts, lbls := g.OutEdges(src)
	// Out-edges are sorted by (dst, label): binary search the dst run.
	i := sort.Search(len(dsts), func(i int) bool {
		return dsts[i] > dst || (dsts[i] == dst && lbls[i] >= label)
	})
	return i < len(dsts) && dsts[i] == dst && lbls[i] == label
}

// Edges returns all edges in (src, dst, label) order. It allocates a fresh
// slice on every call.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := Vertex(0); int(v) < g.n; v++ {
		dsts, lbls := g.OutEdges(v)
		for i := range dsts {
			out = append(out, Edge{Src: v, Dst: dsts[i], Label: lbls[i]})
		}
	}
	return out
}

// VertexName returns the display name of v, or its numeric id when names
// were not provided.
func (g *Graph) VertexName(v Vertex) string {
	if g.vertexNames != nil && int(v) < len(g.vertexNames) && g.vertexNames[v] != "" {
		return g.vertexNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// LabelName returns the display name of l, or "l<i>" when names were not
// provided.
func (g *Graph) LabelName(l Label) string {
	if g.labelNames != nil && int(l) < len(g.labelNames) && g.labelNames[l] != "" {
		return g.labelNames[l]
	}
	return fmt.Sprintf("l%d", l)
}

// LabelNames returns the label display names (possibly nil).
func (g *Graph) LabelNames() []string { return g.labelNames }

// VertexByName returns the vertex with the given display name. It is a
// linear scan intended for examples and tests, not hot paths.
func (g *Graph) VertexByName(name string) (Vertex, bool) {
	for i, n := range g.vertexNames {
		if n == name {
			return Vertex(i), true
		}
	}
	return -1, false
}

// LabelByName returns the label with the given display name.
func (g *Graph) LabelByName(name string) (Label, bool) {
	for i, n := range g.labelNames {
		if n == name {
			return Label(i), true
		}
	}
	return labelseq.NoLabel, false
}

// MemoryBytes returns an estimate of the resident size of the CSR arrays,
// used when reporting graph footprints in benchmarks.
func (g *Graph) MemoryBytes() int64 {
	edges := int64(g.NumEdges())
	offs := int64(g.n+1) * 2 * 8
	return offs + edges*2*(4+4)
}
