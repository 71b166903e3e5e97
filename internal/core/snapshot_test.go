package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
)

// bundleBytes builds an index over g and renders its v2 bundle.
func bundleBytes(t testing.TB, g *graph.Graph, k int) (*Index, []byte) {
	t.Helper()
	ix, err := Build(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return ix, buf.Bytes()
}

// assertEquivalent checks that want and got answer every (s, t, L) query of
// the index class identically, for every interned MR plus a few never-seen
// constraints.
func assertEquivalent(t *testing.T, g *graph.Graph, want, got *Index) {
	t.Helper()
	constraints := []labelseq.Seq{{0}, {1}, {0, 1}, {1, 0}}
	if g.NumLabels() > 2 {
		constraints = append(constraints, labelseq.Seq{2}, labelseq.Seq{0, 2})
	}
	n := g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		for d := graph.Vertex(0); int(d) < n; d++ {
			for _, l := range constraints {
				w, werr := want.Query(s, d, l)
				o, oerr := got.Query(s, d, l)
				if (werr == nil) != (oerr == nil) || w != o {
					t.Fatalf("Query(%d, %d, %v): want (%v, %v), got (%v, %v)", s, d, l, w, werr, o, oerr)
				}
			}
		}
	}
}

func TestSnapshotRoundTripBytes(t *testing.T) {
	g := graph.Fig2()
	ix, data := bundleBytes(t, g, 2)
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("fresh bundle fails Verify: %v", err)
	}
	if s.K() != 2 {
		t.Errorf("K = %d", s.K())
	}
	if fp := g.Fingerprint(); s.Fingerprint() != fp {
		t.Errorf("fingerprint %v != %v", s.Fingerprint(), fp)
	}
	if s.Graph().NumVertices() != g.NumVertices() || s.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("embedded graph shape %d/%d", s.Graph().NumVertices(), s.Graph().NumEdges())
	}
	// Display names survive the round trip (Fig. 2 names its vertices).
	if got, want := s.Graph().VertexName(0), g.VertexName(0); got != want {
		t.Errorf("vertex name %q != %q", got, want)
	}
	if got, want := s.Graph().LabelName(0), g.LabelName(0); got != want {
		t.Errorf("label name %q != %q", got, want)
	}
	assertEquivalent(t, g, ix, s.Index())
	if err := s.Index().ValidateComplete(); err != nil {
		t.Fatalf("snapshot index incomplete: %v", err)
	}
}

func TestSnapshotOpenFile(t *testing.T) {
	g := graph.Fig2()
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig2.rlcs")
	if err := ix.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Path() != path {
		t.Errorf("Path = %q", s.Path())
	}
	t.Logf("size=%d sections=%d", s.SizeBytes(), len(s.Sections()))
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, ix, s.Index())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveSnapshotFileAtomicAndReadable pins two properties of the save
// path: the bundle is published by rename (rebuilding over a served path
// never truncates the mapped inode) and lands world-readable like an
// os.Create'd artifact, so a separately-privileged server can map it.
func TestSaveSnapshotFileAtomicAndReadable(t *testing.T) {
	g := graph.Fig2()
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig2.rlcs")
	if err := ix.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("bundle mode = %o, want 644", st.Mode().Perm())
	}
	// Overwrite while the first version is open: the open snapshot must
	// keep reading its original (renamed-away) inode undisturbed.
	old, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := ix.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if err := old.Verify(); err != nil {
		t.Fatalf("open snapshot disturbed by in-place rebuild: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestSnapshotNoNames covers bundles of graphs without display names (the
// common case for generated and file-loaded graphs).
func TestSnapshotNoNames(t *testing.T) {
	g := graph.FromEdges(4, 2, []graph.Edge{{Src: 0, Dst: 1, Label: 0}, {Src: 1, Dst: 2, Label: 1}, {Src: 2, Dst: 3, Label: 0}, {Src: 3, Dst: 0, Label: 1}})
	ix, data := bundleBytes(t, g, 2)
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Graph().VertexNames() != nil || s.Graph().LabelNames() != nil {
		t.Error("nameless graph grew names through the bundle")
	}
	assertEquivalent(t, g, s.Index(), ix)
}

// TestSnapshotTruncation feeds every prefix of a valid bundle to the v2
// reader: all required sections make any strict prefix invalid, so each
// must fail with the typed corruption error and never panic.
func TestSnapshotTruncation(t *testing.T) {
	_, data := bundleBytes(t, graph.Fig2(), 2)
	for cut := 0; cut < len(data); cut++ {
		s, err := OpenSnapshotBytes(data[:cut])
		if err == nil {
			s.Close()
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("truncation to %d: error not typed ErrCorrupt: %v", cut, err)
		}
	}
}

// within reports whether the non-empty slice s lies inside buf.
func within[T any](buf []byte, s []T) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s))*unsafe.Sizeof(s[0]) <= lo+uintptr(len(buf))
}

// TestOpenIsZeroCopy: OpenSnapshot reads the file into one buffer and
// adopts every array section as a view of it — the graph's out-adjacency,
// the access order, the packed groups, offsets and set pool, and on a
// budgeted bundle the tier unions, set pool and blooms all point into
// Snapshot.Bytes(), none is a copy. The in-adjacency is derived at open and
// must be the one graph.Builder builds.
func TestOpenIsZeroCopy(t *testing.T) {
	g := er60(t)
	ix, err := Build(g, Options{K: 2, MaxIndexBytes: er60Budget})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "er60.rlcs")
	if err := ix.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, p, tr, csr := s.Bytes(), s.Index().packed, s.Index().tiers, s.Graph().RawCSR()
	if tr == nil {
		t.Fatal("budgeted bundle opened untiered")
	}
	for what, ok := range map[string]bool{
		"CSR out-offsets":             within(raw, csr.OutOff),
		"CSR out-targets":             within(raw, csr.OutDst),
		"CSR out-labels":              within(raw, csr.OutLbl),
		"access order":                within(raw, s.Index().order),
		"packed groups":               within(raw, p.groups),
		"packed out-offsets":          within(raw, p.off[lout]),
		"packed in-offsets":           within(raw, p.off[lin]),
		"packed set pool words":       within(raw, p.words),
		"packed set pool descriptors": within(raw, p.desc),
		"tier out-unions":             within(raw, tr.union[lout]),
		"tier in-unions":              within(raw, tr.union[lin]),
		"tier set pool words":         within(raw, tr.words),
		"tier set pool descriptors":   within(raw, tr.desc),
		"tier blooms":                 within(raw, tr.bloom),
	} {
		if !ok {
			t.Errorf("%s do not point into the bundle bytes", what)
		}
	}
	assertSameInAdjacency(t, s.Graph(), g)
}

// assertSameInAdjacency checks that got's in-adjacency runs equal want's,
// order included.
func assertSameInAdjacency(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%d vertices, want %d", got.NumVertices(), want.NumVertices())
	}
	for v := graph.Vertex(0); int(v) < want.NumVertices(); v++ {
		gs, gl := got.InEdges(v)
		ws, wl := want.InEdges(v)
		if !slices.Equal(gs, ws) || !slices.Equal(gl, wl) {
			t.Fatalf("InEdges(%d) = %v %v, want %v %v", v, gs, gl, ws, wl)
		}
	}
}

// TestSnapshotTruncationOnDisk repeats a sample of truncations through the
// file open path.
func TestSnapshotTruncationOnDisk(t *testing.T) {
	_, data := bundleBytes(t, graph.Fig2(), 2)
	dir := t.TempDir()
	for _, cut := range []int{0, 3, 15, 16, len(data) / 4, len(data) / 2, len(data) - 1} {
		path := filepath.Join(dir, "trunc.rlcs")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSnapshot(path)
		if err == nil {
			s.Close()
			t.Fatalf("on-disk truncation to %d accepted", cut)
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("on-disk truncation to %d: error not typed: %v", cut, err)
		}
	}
}

// rebundle re-renders a bundle after mutate edited its section map (deleted
// key = drop the section; a new key = one more section, after the original
// ones). Checksums are recomputed, so these bundles exercise the semantic
// validation behind the container layer.
func rebundle(t *testing.T, data []byte, mutate func(secs map[uint32][]byte)) []byte {
	t.Helper()
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := make(map[uint32][]byte)
	var order []uint32
	for _, info := range f.Sections() {
		b, _ := f.Section(info.ID)
		secs[info.ID] = append([]byte(nil), b...)
		order = append(order, info.ID)
	}
	mutate(secs)
	w := snapshot.NewWriter()
	for _, id := range order {
		if b, ok := secs[id]; ok {
			w.Add(id, b)
			delete(secs, id)
		}
	}
	added := make([]uint32, 0, len(secs))
	for id := range secs {
		added = append(added, id)
	}
	slices.Sort(added)
	for _, id := range added {
		w.Add(id, secs[id])
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inAdjacencySections renders g's in-adjacency in the layout of sections
// 5-7, which bundles carried before the in-adjacency was derived at open:
// int64 offsets, int32 sources, int32 labels.
func inAdjacencySections(g *graph.Graph) map[uint32][]byte {
	off := make([]int64, 1, g.NumVertices()+1)
	var src []graph.Vertex
	var lbl []labelseq.Label
	for v := graph.Vertex(0); int(v) < g.NumVertices(); v++ {
		s, l := g.InEdges(v)
		src, lbl = append(src, s...), append(lbl, l...)
		off = append(off, int64(len(src)))
	}
	return map[uint32][]byte{5: snapshot.Bytes(off), 6: snapshot.Bytes(src), 7: snapshot.Bytes(lbl)}
}

// TestSnapshotInAdjacencyIsDerived: a bundle's stored in-adjacency is never
// read. Sections 5-7 taken from the reverse graph, which has the same shape,
// checksum clean beside the out-adjacency of the forward one; the opened
// graph's in-adjacency must still be the transpose of its out-adjacency.
func TestSnapshotInAdjacencyIsDerived(t *testing.T) {
	a := graph.FromEdges(3, 1, []graph.Edge{{Src: 0, Dst: 1, Label: 0}, {Src: 1, Dst: 2, Label: 0}})
	b := graph.FromEdges(3, 1, []graph.Edge{{Src: 2, Dst: 1, Label: 0}, {Src: 1, Dst: 0, Label: 0}})
	_, base := bundleBytes(t, a, 2)
	data := rebundle(t, base, func(s map[uint32][]byte) {
		for id, sec := range inAdjacencySections(b) {
			s[id] = sec
		}
	})
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if srcs, _ := s.Graph().InEdges(2); !slices.Equal(srcs, []graph.Vertex{1}) {
		t.Errorf("InEdges(2) = %v, want [1]", srcs)
	}
	assertSameInAdjacency(t, s.Graph(), a)
}

// TestSnapshotSemanticCorruption drives the v2 reader's structural
// validation: plausible containers with nonsense payloads must be rejected
// with the typed error, never panic, never open.
func TestSnapshotSemanticCorruption(t *testing.T) {
	_, base := bundleBytes(t, graph.Fig2(), 2)
	cases := []struct {
		name   string
		mutate func(secs map[uint32][]byte)
	}{
		{"meta-k-zero", func(s map[uint32][]byte) { s[secMeta][0] = 0 }},
		{"meta-k-huge", func(s map[uint32][]byte) { s[secMeta][0] = MaxK + 1 }},
		{"meta-entrycount-drift", func(s map[uint32][]byte) { s[secMeta][32]++ }},
		{"meta-n-high-bits", func(s map[uint32][]byte) { s[secMeta][12] = 1 }},
		{"meta-m-high-bits", func(s map[uint32][]byte) { s[secMeta][20] = 1 }},
		{"missing-dict", func(s map[uint32][]byte) { delete(s, secDict) }},
		{"missing-graph", func(s map[uint32][]byte) { delete(s, secGraphOutDst) }},
		{"order-duplicate", func(s map[uint32][]byte) { copy(s[secOrder][4:8], s[secOrder][0:4]) }},
		{"order-oob", func(s map[uint32][]byte) {
			s[secOrder][0] = 0xff
			s[secOrder][1] = 0xff
			s[secOrder][2] = 0xff
			s[secOrder][3] = 0x7f
		}},
		{"graph-dst-oob", func(s map[uint32][]byte) {
			b := s[secGraphOutDst]
			copy(b[0:4], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"dict-label-oob", func(s map[uint32][]byte) {
			b := s[secDict]
			// First sequence has len >= 1; poison its first label.
			copy(b[1:5], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"dict-seq-empty", func(s map[uint32][]byte) {
			// The first sequence shrinks to 0 labels and nothing else moves:
			// the count, every other sequence and the section's end all
			// still line up, so only the 1..k length check can object.
			b := s[secDict]
			s[secDict] = append([]byte{0}, b[1+4*int(b[0]):]...)
		}},
		{"dict-trailing", func(s map[uint32][]byte) { s[secDict] = append(s[secDict], 0xaa) }},
		{"names-count-drift", func(s map[uint32][]byte) { s[secVertexNames][0]++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rebundle(t, base, tc.mutate)
			s, err := OpenSnapshotBytes(data)
			if err == nil {
				s.Close()
				t.Fatal("semantic corruption accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
		})
	}
}

// TestSnapshotVerifyCatchesBitFlips pins the Open/Verify split: a bit flip
// inside a payload that open-time structural validation does not read (a
// vertex name's bytes) opens fine but must fail Verify via its checksum.
func TestSnapshotVerifyCatchesBitFlips(t *testing.T) {
	_, data := bundleBytes(t, graph.Fig2(), 2)
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var namesOff uint64
	for _, info := range f.Sections() {
		if info.ID == secVertexNames {
			namesOff = info.Offset
		}
	}
	corrupt := append([]byte(nil), data...)
	corrupt[namesOff+8] ^= 0x01 // first byte of the first name (after count and length)
	s, err := OpenSnapshotBytes(corrupt)
	if err != nil {
		t.Fatalf("in-range bit flip failed open: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Verify = %v, want typed ErrCorrupt", err)
	}

	// The same bytes on disk: the verified open refuses them.
	path := filepath.Join(t.TempDir(), "flipped.rlcs")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if vs, err := OpenVerifiedSnapshot(path); !errors.Is(err, snapshot.ErrCorrupt) {
		if vs != nil {
			vs.Close()
		}
		t.Fatalf("OpenVerifiedSnapshot = %v, want typed ErrCorrupt", err)
	}
}

// FuzzOpenSnapshot mutates bundle bytes arbitrarily: the reader must never
// panic, and every rejection must carry the typed corruption error. A bundle
// that opens has only dictionary sequences of 1..k labels; bundles that both
// open and verify must answer queries without panicking.
func FuzzOpenSnapshot(f *testing.F) {
	_, valid := bundleBytes(f, graph.Fig2(), 2)
	f.Add(valid)
	// The golden bundle still carries the retired in-adjacency sections 5-7.
	golden, err := os.ReadFile(filepath.Join("testdata", "fig2_k2.rlcs"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RLCS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenSnapshotBytes(data)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("open error not typed ErrCorrupt: %v", err)
			}
			return
		}
		defer s.Close()
		ix, g := s.Index(), s.Graph()
		for i := 0; i < ix.dict.Len(); i++ {
			if l := len(ix.dict.Seq(labelseq.ID(i))); l < 1 || l > ix.k {
				t.Fatalf("opened a bundle whose dictionary sequence %d has %d labels, want 1..%d", i, l, ix.k)
			}
		}
		if err := s.Verify(); err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("verify error not typed ErrCorrupt: %v", err)
			}
			return
		}
		n := g.NumVertices()
		if n == 0 {
			return
		}
		for _, l := range []labelseq.Seq{{0}, {0, 1}} {
			_, _ = ix.Query(0, graph.Vertex(n-1), l)
		}
		_ = ix.LinEntries(0)
		_ = ix.LoutEntries(graph.Vertex(n - 1))
	})
}

// TestQueryBatchCtxCanceled pins the cancellation contract: a canceled
// context yields the context error in every unanswered slot.
func TestQueryBatchCtxCanceled(t *testing.T) {
	g := graph.Fig2()
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 200)
	for i := range queries {
		queries[i] = BatchQuery{S: 0, T: 1, L: labelseq.Seq{0}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		results := ix.QueryBatchIntoCtx(ctx, queries, workers, nil)
		if len(results) != len(queries) {
			t.Fatalf("got %d results", len(results))
		}
		for i, r := range results {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("workers=%d result %d: err = %v, want context.Canceled", workers, i, r.Err)
			}
		}
	}
	// A live context answers normally through the ctx variants.
	results := ix.QueryBatchIntoCtx(context.Background(), queries[:4], 2, nil)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
}

// TestQueryRLCContext pins the Querier-facing index method.
func TestQueryRLCContext(t *testing.T) {
	g := graph.Fig2()
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Query(0, 1, labelseq.Seq{0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryRLC(context.Background(), 0, 1, labelseq.Seq{0})
	if err != nil || got != want {
		t.Fatalf("QueryRLC = %v, %v; want %v", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryRLC(ctx, 0, 1, labelseq.Seq{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled QueryRLC err = %v", err)
	}
}
