package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// serialize renders an index to its bundle bytes — the one definition of
// "same index".
func serialize(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFormatStability pins the bundle format and the build together:
// testdata/fig2_k2.rlcs was written by rlcbuild at 63097c1 (the last commit
// with a second builder) over `rlcgen -model fig2`, and it must keep opening,
// verifying and answering — and a fresh build of Fig. 2 must keep writing
// exactly those bytes. Never regenerate it to make a change pass.
func TestGoldenFormatStability(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fig2_k2.rlcs"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshotBytes(golden)
	if err != nil {
		t.Fatalf("golden bundle no longer opens — the format changed without a version bump: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("golden bundle no longer verifies: %v", err)
	}
	ix, g := s.Index(), s.Graph()
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

	// Determinism pin: same dictionary interning order, access order and
	// packed groups, byte for byte. rlcbuild numbered the vertices in file
	// order, so the fresh build is over the bundle's own graph, not
	// graph.Fig2().
	fresh, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, fresh), golden) {
		t.Error("fresh build of Fig. 2 serializes differently from the golden bundle — construction or format drifted")
	}
}
