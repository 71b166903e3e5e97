package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
)

// allRules is the rule set Build applies.
var allRules = Pruning{PR1: true, PR2: true, PR3: true}

// allOrders is every access order the reference accepts; the tests run
// Build's own builder in each of them too.
var allOrders = []Order{OrderInOut, OrderDegreeSum, OrderNatural, OrderReverse}

// productionRules reports whether rules switch every pruning rule on — the
// rule set Build's builder runs, which the tests run in any access order.
func productionRules(rules Pruning) bool { return rules.PR1 && rules.PR2 && rules.PR3 }

// buildInOrder is Build's own builder with the vertices processed in access
// order o instead of IN-OUT, handing back what buildWithLists does.
func buildInOrder(g *graph.Graph, opts Options, o Order) (ix *Index, out, in [][]entry, stats BuildStats, err error) {
	order, err := accessOrder(g, o)
	if err != nil {
		return nil, nil, nil, stats, err
	}
	return buildWithLists(g, opts, order)
}

// mustBuildInOrder is mustBuild in access order o.
func mustBuildInOrder(t *testing.T, g *graph.Graph, opts Options, o Order) *Index {
	t.Helper()
	ix, _, _, _, err := buildInOrder(g, opts, o)
	if err != nil {
		t.Fatalf("Build in order %d: %v", o, err)
	}
	return ix
}

// buildWith builds g under rules: with every pruning rule on through Build's
// own builder in rules.Order, otherwise through BuildReference.
func buildWith(g *graph.Graph, opts Options, rules Pruning) (*Index, error) {
	if productionRules(rules) {
		ix, _, _, _, err := buildInOrder(g, opts, rules.Order)
		return ix, err
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
				opts, rules := Options{K: k}, allRules
				rules.Order = o
				ix := mustBuildInOrder(t, g, opts, o)
				ref, err := BuildReference(g, opts, rules)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialize(t, ref), serialize(t, ix)) {
					t.Fatalf("trial %d k=%d order %d: BuildReference and Build write different bundles\nedges: %v", trial, k, o, g.Edges())
				}
			}
		}
	}
}
