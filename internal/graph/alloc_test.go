package graph_test

import (
	"bytes"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// TestReadAllocs holds loading the text of the graph the benchmark harness
// serves (WN at 5,000 vertices, graph seed 1) under 1,000 heap allocations:
// a numeric file costs its bytes, its edge list and the graph; a string per
// line would cost over 42,000.
func TestReadAllocs(t *testing.T) {
	wn, err := datasets.ByName("WN")
	if err != nil {
		t.Fatal(err)
	}
	g, err := wn.Generate(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		back, err := graph.Read(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if back.NumEdges() != g.NumEdges() {
			t.Fatalf("read back %d edges, want %d", back.NumEdges(), g.NumEdges())
		}
	})
	if allocs >= 1000 {
		t.Errorf("reading the serving graph's %d bytes: %.0f allocations, want < 1,000", text.Len(), allocs)
	}
	t.Logf("%d bytes, %d edges: %.0f allocations", text.Len(), g.NumEdges(), allocs)
}
