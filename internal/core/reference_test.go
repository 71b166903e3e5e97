package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
)

// allRules is the rule set Build applies.
var allRules = Pruning{PR1: true, PR2: true, PR3: true}

// buildWith builds g with Build when rules are allRules and with
// BuildReference otherwise.
func buildWith(g *graph.Graph, opts Options, rules Pruning) (*Index, error) {
	if rules == allRules {
		return Build(g, opts)
	}
	return BuildReference(g, opts, rules)
}

// TestReferenceMatchesBuild is the executable form of the argument above
// builder.go's kbs: Build's shortcuts change no entry and no MR id, so on
// random graphs, under every access order and k from 1 to 3, it writes the
// bundle bytes of Algorithm 2 as stated.
func TestReferenceMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	trials := 100
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(13)
		g := randomGraph(r, n, 1+r.Intn(3), 1+r.Intn(4*n))
		for k := 1; k <= 3; k++ {
			for _, o := range allOrders {
				opts := Options{K: k, Order: o}
				ix := mustBuild(t, g, opts)
				ref, err := BuildReference(g, opts, allRules)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialize(t, ref), serialize(t, ix)) {
					t.Fatalf("trial %d %+v: BuildReference and Build write different bundles\nedges: %v", trial, opts, g.Edges())
				}
			}
		}
	}
}
