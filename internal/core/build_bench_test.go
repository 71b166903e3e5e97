package core_test

import (
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// servingGraph is exactly the graph benchmark/gen.go builds its servers
// from: the WN profile at 5,000 vertices, graph seed 1.
func servingGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	wn, err := datasets.ByName("WN")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := wn.Generate(5000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// logServingStats keeps BenchmarkBuildServingGraph's BuildStats line to one:
// the framework calls a benchmark once per b.N it tries.
var logServingStats sync.Once

// BenchmarkBuildServingGraph is the harness's core.build_s without the
// harness: one k = 2 build of the serving graph per iteration —
// what rlcbuild spends its set-up on and what a fold spends its time in.
// Profile it with -cpuprofile / -memprofile.
func BenchmarkBuildServingGraph(b *testing.B) {
	g := servingGraph(b)
	opts := core.Options{K: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := core.BuildWithStats(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		logServingStats.Do(func() { b.Logf("BuildStats: %+v", st) })
	}
}

// TestBuildAllocs holds one build of the serving graph under
// 100,000 heap allocations. With map-based scratch it took 1,676,106 (one
// escaping search state per edge visited, one member map per kernel
// candidate); what is left is the entry lists' growth, the dictionary and
// seal.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 5,000-vertex serving graph twice")
	}
	g := servingGraph(t)
	opts := core.Options{K: 2}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := core.Build(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100_000 {
		t.Errorf("build of the serving graph: %.0f allocations, want <= 100,000", allocs)
	}
}
