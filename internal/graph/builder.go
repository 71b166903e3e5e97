package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates labeled edges and produces an immutable Graph.
// The zero value is not usable; construct with NewBuilder.
type Builder struct {
	n         int
	numLabels int
	edges     []Edge

	vertexNames []string
	labelNames  []string
}

// NewBuilder returns a builder for a graph with n vertices and numLabels
// labels. Both may grow implicitly when AddEdge sees larger ids.
func NewBuilder(n, numLabels int) *Builder {
	return &Builder{n: n, numLabels: numLabels}
}

// SetVertexNames attaches display names (index = vertex id).
func (b *Builder) SetVertexNames(names []string) { b.vertexNames = names }

// SetLabelNames attaches display names (index = label id).
func (b *Builder) SetLabelNames(names []string) { b.labelNames = names }

// AddEdge records the directed edge (src, label, dst). Vertex and label
// universes grow as needed. Negative ids panic.
func (b *Builder) AddEdge(src Vertex, label Label, dst Vertex) {
	if src < 0 || dst < 0 || label < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d, %d): negative id", src, label, dst))
	}
	if int(src) >= b.n {
		b.n = int(src) + 1
	}
	if int(dst) >= b.n {
		b.n = int(dst) + 1
	}
	if int(label) >= b.numLabels {
		b.numLabels = int(label) + 1
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Label: label})
}

// NumEdges returns the number of edges recorded so far (duplicates
// included).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build sorts, deduplicates and freezes the edges into a Graph. The builder
// remains usable; calling Build again reflects any edges added since.
func (b *Builder) Build() *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Label < edges[j].Label
	})
	// Remove exact duplicates.
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup

	g := &Graph{
		n:           b.n,
		numLabels:   b.numLabels,
		vertexNames: b.vertexNames,
		labelNames:  b.labelNames,
	}
	m := len(edges)
	g.outOff = make([]int64, g.n+1)
	g.outDst = make([]Vertex, m)
	g.outLbl = make([]Label, m)
	// Edges are sorted by (src, dst, label), so the out arrays fill in order.
	for i, e := range edges {
		g.outOff[e.Src+1]++
		g.outDst[i] = e.Dst
		g.outLbl[i] = e.Label
	}
	for v := 0; v < g.n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	g.fillIn()
	return g
}

// fillIn derives the in-adjacency from the out-adjacency with a counting
// transpose: the out arrays are read in (src, dst, label) order, so every
// in-run, which holds one dst, fills sorted by (src, label) with no
// re-sort. inOff[d] serves as d's cursor while the runs fill, which leaves
// each offset one slot left of its final place; a shift puts it back.
// Builder.Build and AdoptCSR both make their in-adjacency here; the out
// arrays must be valid.
func (g *Graph) fillIn() {
	n, outOff, outDst, outLbl := g.n, g.outOff, g.outDst, g.outLbl
	inOff := make([]int64, n+1)
	inSrc := make([]Vertex, len(outDst))
	inLbl := make([]Label, len(outDst))
	for _, d := range outDst {
		inOff[d+1]++
	}
	for v := 1; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	for u := 0; u < n; u++ {
		for i := outOff[u]; i < outOff[u+1]; i++ {
			d := outDst[i]
			c := inOff[d]
			inSrc[c], inLbl[c] = Vertex(u), outLbl[i]
			inOff[d] = c + 1
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0
	g.inOff, g.inSrc, g.inLbl = inOff, inSrc, inLbl
}

// FromEdges is a convenience constructor used by tests and generators.
func FromEdges(n, numLabels int, edges []Edge) *Graph {
	b := NewBuilder(n, numLabels)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	return b.Build()
}
