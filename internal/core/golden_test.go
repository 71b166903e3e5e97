package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// v1Fixture returns the bytes of a checked-in v1 index and the graph it
// binds to. Nothing in the tree writes v1 any more, so the fixtures are
// never regenerated: "fig2_k2" is the golden over graph.Fig2(); "er12_k2"
// was written by the last commit that had `rlcbuild -out`, over
// testdata/er12.graph (rlcgen -model er -n 12 -d 4 -labels 3 -seed 12).
func v1Fixture(t testing.TB, name string) ([]byte, *graph.Graph) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+"_v1.rlc"))
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "fig2_k2":
		return data, graph.Fig2()
	case "er12_k2":
		g, err := graph.LoadFile(filepath.Join("testdata", "er12.graph"))
		if err != nil {
			t.Fatal(err)
		}
		return data, g
	}
	t.Fatalf("no graph known for v1 fixture %q", name)
	return nil, nil
}

// TestGoldenFormatStability pins the v1 import: an index file written by
// version 1 of the format (checked into testdata) must keep loading and
// answering correctly forever.
func TestGoldenFormatStability(t *testing.T) {
	data, g := v1Fixture(t, "fig2_k2")
	ix, err := Load(bytes.NewReader(data), g)
	if err != nil {
		t.Fatalf("golden file no longer loads — the format changed without a version bump: %v", err)
	}
	if ix.K() != 2 {
		t.Errorf("golden k = %d", ix.K())
	}
	// Example 4's answers from the golden index.
	v := func(name string) graph.Vertex { id, _ := g.VertexByName(name); return id }
	ok, err := ix.Query(v("v3"), v("v6"), labelseq.Seq{1, 0})
	if err != nil || !ok {
		t.Errorf("golden Q1 = %v, %v", ok, err)
	}
	ok, err = ix.Query(v("v1"), v("v3"), labelseq.Seq{0})
	if err != nil || ok {
		t.Errorf("golden Q3 = %v, %v", ok, err)
	}
	if err := ix.ValidateComplete(); err != nil {
		t.Errorf("golden index incomplete: %v", err)
	}

	// A fresh build must write the same bundle as the golden index
	// (determinism pin): same dictionary interning order, access order and
	// packed groups.
	fresh, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, fresh), serialize(t, ix)) {
		t.Error("fresh build of Fig. 2 serializes differently from the golden index — construction or format drifted")
	}
}
