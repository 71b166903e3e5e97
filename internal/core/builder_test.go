package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestLabelRunsFrom holds the kernel-BFS adjacency to its contract on a
// random multigraph (parallel edges under different labels, self-loops)
// relabelled by a random access order: every label run is the vertex's
// neighbours through that label, as ranks, ascending; and with src rising
// from 0 to n-1, edgesFrom returns the run filtered to ranks >= src — for
// both directions and every (vertex, label), so each run's cursor is
// exercised from its first call to its last.
func TestLabelRunsFrom(t *testing.T) {
	const n, labels = 40, 3
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, n, labels, 600)
	ix := &Index{g: g, order: make([]graph.Vertex, n), rank: make([]int32, n)}
	for i, v := range r.Perm(n) {
		ix.order[i] = graph.Vertex(v)
		ix.rank[v] = int32(i)
	}
	for _, dir := range []direction{backward, forward} {
		runs := newLabelCSR(newRankCSR(ix, dir))
		for v := range int32(n) {
			nbrs, lbls := g.OutEdges(ix.order[v])
			if dir == backward {
				nbrs, lbls = g.InEdges(ix.order[v])
			}
			for l := range labelseq.Label(labels) {
				var want []int32
				for i, y := range nbrs {
					if lbls[i] == l {
						want = append(want, ix.rank[y])
					}
				}
				slices.Sort(want)
				if got := runs.edges(v, l); !slices.Equal(got, want) {
					t.Fatalf("dir %d: edges(%d, %d) = %v, want %v", dir, v, l, got, want)
				}
			}
		}
		for src := range int32(n) {
			for v := range int32(n) {
				for l := range labelseq.Label(labels) {
					var want []int32
					for _, y := range runs.edges(v, l) {
						if y >= src {
							want = append(want, y)
						}
					}
					if got := runs.edgesFrom(v, l, src); !slices.Equal(got, want) {
						t.Fatalf("dir %d, src %d: edgesFrom(%d, %d) = %v, want %v", dir, src, v, l, got, want)
					}
				}
			}
		}
	}
}
