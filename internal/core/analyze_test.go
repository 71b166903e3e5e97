package core

import (
	"testing"

	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

func TestEntryDistributionBasics(t *testing.T) {
	ix := mustBuild(t, graph.Fig2(), Options{K: 2})
	d := ix.EntryDistribution()
	if d.Count == 0 || d.Max == 0 || d.Mean <= 0 {
		t.Errorf("degenerate distribution: %+v", d)
	}
	// Table II: 26 entries across 6 vertices; v1 has none in Lin but 3 in
	// Lout, v6 has 4 in Lin and none in Lout.
	total := 0.0
	total = d.Mean * float64(d.Count)
	if int(total+0.5) != 26 {
		t.Errorf("entry mass = %.1f, want 26", total)
	}
}

func TestHubDistributionBasics(t *testing.T) {
	ix := mustBuild(t, graph.Fig2(), Options{K: 2})
	d := ix.HubDistribution()
	if d.Count == 0 {
		t.Fatal("no hubs")
	}
	// Table II: hubs are v1 (dominant), v2, v3, v4 — four distinct.
	if d.Count != 4 {
		t.Errorf("distinct hubs = %d, want 4", d.Count)
	}
	if d.TopShare <= 0 || d.TopShare > 1 {
		t.Errorf("TopShare = %f", d.TopShare)
	}
	if ix.AccessOrder()[0] != 0 { // v1 has access rank 0
		t.Errorf("AccessOrder()[0] = %d", ix.AccessOrder()[0])
	}
}

// TestHubSkewBAvsER reproduces the mechanism behind the paper's Figure 5/6
// discussion: BA-graphs concentrate entries on far fewer hubs than
// ER-graphs of the same size.
func TestHubSkewBAvsER(t *testing.T) {
	ba, err := gen.BA(400, 3, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ER(400, ba.NumEdges(), 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ixBA := mustBuild(t, ba, Options{K: 2})
	ixER := mustBuild(t, er, Options{K: 2})
	dBA, dER := ixBA.HubDistribution(), ixER.HubDistribution()
	if dBA.TopShare <= dER.TopShare {
		t.Errorf("expected BA hub skew above ER: BA TopShare %.3f, ER %.3f", dBA.TopShare, dER.TopShare)
	}
}

func TestDistributionEmptyIndex(t *testing.T) {
	g := graph.NewBuilder(3, 1).Build()
	ix := mustBuild(t, g, Options{K: 2})
	if d := ix.EntryDistribution(); d.Count != 0 || d.Max != 0 {
		t.Errorf("empty index distribution: %+v", d)
	}
	if d := ix.HubDistribution(); d.Count != 0 {
		t.Errorf("empty hub distribution: %+v", d)
	}
}

// TestBuildStats sanity-checks the construction counters on Fig. 2.
func TestBuildStats(t *testing.T) {
	ix, st, err := BuildWithStats(graph.Fig2(), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != ix.NumEntries() {
		t.Errorf("Inserted = %d, entries = %d", st.Inserted, ix.NumEntries())
	}
	if st.Attempts() != st.Inserted+st.PrunedPR1+st.PrunedPR2 {
		t.Error("Attempts arithmetic broken")
	}
	if st.KernelSearchStates == 0 || st.KernelBFSRuns == 0 || st.KernelBFSNodes == 0 {
		t.Errorf("zero traversal counters: %+v", st)
	}
	if st.PrunedPR1 == 0 || st.PrunedPR2 == 0 {
		t.Errorf("Fig. 2 must exercise PR1 and PR2 (Example 6): %+v", st)
	}

	// With pruning off, more entries land.
	ix2, err := BuildReference(graph.Fig2(), Options{K: 2}, Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	if ix2.NumEntries() <= ix.NumEntries() {
		t.Errorf("unpruned index not larger: %d vs %d", ix2.NumEntries(), ix.NumEntries())
	}
}
