package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestGoldenFormatStability pins the serialization format: an index file
// written by version 1 of the format (checked into testdata) must keep
// loading and answering correctly forever. Bump the format version rather
// than regenerate this file.
func TestGoldenFormatStability(t *testing.T) {
	g := graph.Fig2()
	data, err := os.ReadFile(filepath.Join("testdata", "fig2_k2_v1.rlc"))
	if err != nil {
		t.Fatal(err)
	}
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

	// A fresh build must serialize byte-identically to the golden index
	// (determinism pin). The comparison is against the golden re-written,
	// not its raw bytes: the file keeps MRs within one hub's run in the old
	// writer's insertion order, which no reader ever depended on and the
	// packed form does not store — Write emits them ascending.
	fresh, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, fresh), serialize(t, ix)) {
		t.Error("fresh build of Fig. 2 serializes differently from the golden index — construction or format drifted")
	}
}
