package core

import (
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestProbesAgreeWithQuery: a target probe's Reaches(x) must equal
// Query(x, fixed, L+) and a source probe's Query(fixed, x, L+) for every
// fixed endpoint, candidate x and constraint — on untiered indexes, where
// both probes run their own Case 1/Case 2 scan, and on size-budgeted ones,
// where a pair of retained endpoints still scans and a demoted endpoint
// delegates to the tier path.
func TestProbesAgreeWithQuery(t *testing.T) {
	r := rand.New(rand.NewSource(500))
	var graphs []*graph.Graph
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(10)
		graphs = append(graphs, randomGraph(r, n, 2, 3*n))
	}
	graphs = append(graphs, randomGraph(r, 40, 3, 180)) // tiers at half its size
	mixed := 0
	for trial, g := range graphs {
		full := mustBuild(t, g, Options{K: 2})
		budgeted := mustBuild(t, g, Options{K: 2, MaxIndexBytes: full.SizeBytes() / 2})
		if tr := budgeted.tiers; tr != nil && tr.retainedRanks > 0 {
			mixed++
		}
		n := graph.Vertex(g.NumVertices())
		for _, ix := range []*Index{full, budgeted} {
			for _, l := range PrimitiveConstraints(g.NumLabels(), 2) {
				for fixed := range n {
					tp, err := ix.NewTargetProbe(fixed, l)
					if err != nil {
						t.Fatal(err)
					}
					sp, err := ix.NewSourceProbe(fixed, l)
					if err != nil {
						t.Fatal(err)
					}
					for x := range n {
						if want, _ := ix.Query(x, fixed, l); tp.Reaches(x) != want {
							t.Fatalf("trial %d tiered=%v: target probe (%d->%d, %v) = %v, Query = %v",
								trial, ix.Tiered(), x, fixed, l, !want, want)
						}
						if want, _ := ix.Query(fixed, x, l); sp.Reaches(x) != want {
							t.Fatalf("trial %d tiered=%v: source probe (%d->%d, %v) = %v, Query = %v",
								trial, ix.Tiered(), fixed, x, l, !want, want)
						}
					}
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no budgeted build both retained and demoted vertices")
	}
}

func TestTargetProbeValidation(t *testing.T) {
	ix := mustBuild(t, graph.Fig2(), Options{K: 2})
	if _, err := ix.NewTargetProbe(0, labelseq.Seq{0, 0}); err == nil {
		t.Error("non-primitive constraint must fail")
	}
	if _, err := ix.NewTargetProbe(99, labelseq.Seq{0}); err == nil {
		t.Error("out-of-range target must fail")
	}
	// A constraint no path carries: probe must answer false everywhere.
	probe, err := ix.NewTargetProbe(0, labelseq.Seq{2, 0}) // (l3, l1) never occurs as an MR toward v1
	if err != nil {
		t.Fatal(err)
	}
	for s := graph.Vertex(0); int(s) < 6; s++ {
		want, _ := ix.Query(s, 0, labelseq.Seq{2, 0})
		if probe.Reaches(s) != want {
			t.Fatalf("probe disagrees with query at s=%d", s)
		}
	}
}
