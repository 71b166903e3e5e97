package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// er60 is the fixed Erdős–Rényi graph the accounting and tier goldens pin.
func er60(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ER(60, 220, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// er60Budget is a MaxIndexBytes that splits er60 at k = 2 into 25 retained
// and 35 demoted vertices.
const er60Budget = 3885

// TestAccountingPinned pins the logical index accounting to the numbers the
// entry-array representation reported (recorded at the last commit that had
// one): entry counts are popcounts over the packed sets now, and SizeBytes —
// the unit MaxIndexBytes is denominated in — must not have moved, or every
// deployed budget would silently select a different cut.
func TestAccountingPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
		want Stats
	}{
		{"fig2", graph.Fig2(), Options{K: 2}, Stats{
			Entries: 26, InEntries: 13, OutEntries: 13, SizeBytes: 396,
			Packed: PackedStats{Groups: 17, Sets: 10, PoolWords: 10, SizeBytes: 524},
		}},
		{"er60", er60(t), Options{K: 2}, Stats{
			Entries: 561, InEntries: 267, OutEntries: 294, SizeBytes: 5180,
			Packed: PackedStats{Groups: 418, Sets: 27, PoolWords: 27, SizeBytes: 4576},
		}},
		{"er60-budgeted", er60(t), Options{K: 2, MaxIndexBytes: er60Budget}, Stats{
			Entries: 197, InEntries: 96, OutEntries: 101, SizeBytes: 3840,
			Packed: PackedStats{Groups: 124, Sets: 17, PoolWords: 17, SizeBytes: 2024},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := mustBuild(t, tc.g, tc.opts)
			st := ix.Stats()
			if ix.NumEntries() != tc.want.Entries || st.Entries != tc.want.Entries ||
				st.InEntries != tc.want.InEntries || st.OutEntries != tc.want.OutEntries {
				t.Errorf("entries = %d (NumEntries %d; %d in, %d out), want %d (%d in, %d out)",
					st.Entries, ix.NumEntries(), st.InEntries, st.OutEntries,
					tc.want.Entries, tc.want.InEntries, tc.want.OutEntries)
			}
			if st.SizeBytes != tc.want.SizeBytes || ix.SizeBytes() != tc.want.SizeBytes {
				t.Errorf("SizeBytes = %d, want %d", st.SizeBytes, tc.want.SizeBytes)
			}
			if st.Packed != tc.want.Packed {
				t.Errorf("Packed = %+v, want %+v", st.Packed, tc.want.Packed)
			}
			// The counts survive a bundle round trip (there they are
			// recounted from the mapped sets).
			var buf bytes.Buffer
			if err := ix.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSnapshotBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Index().Stats(); got.Entries != st.Entries || got.InEntries != st.InEntries ||
				got.SizeBytes != st.SizeBytes || got.Packed != st.Packed {
				t.Errorf("opened bundle reports %+v, built index %+v", got, st)
			}
		})
	}
}

// listOracle answers index-class queries from the builder's pre-pack entry
// lists — Algorithm 1 on the plain (hub, mr) pairs, sharing nothing with the
// packed form it checks.
type listOracle struct {
	rank    []int32
	out, in [][]entry
}

// buildWithOracle builds g as buildWith does and returns the index with its
// entry lists.
func buildWithOracle(t testing.TB, g *graph.Graph, opts Options, rules Pruning) (*Index, listOracle) {
	t.Helper()
	var ix *Index
	var out, in [][]entry
	var err error
	if productionRules(rules) {
		ix, out, in, _, err = buildInOrder(g, opts, rules.Order)
	} else {
		ix, out, in, err = buildReference(g, opts, rules)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ix, listOracle{rank: ix.rank, out: out, in: in}
}

func (o listOracle) queryByID(s, t graph.Vertex, mr labelseq.ID) bool {
	outS, inT := o.out[s], o.in[t]
	return hasEntry(outS, o.rank[t], mr) || hasEntry(inT, o.rank[s], mr) || joinHas(outS, inT, mr)
}

// hasEntry reports whether list (sorted by hub) contains (hub, mr) —
// Case 2 of Definition 4 on an entry list.
func hasEntry(list []entry, hub int32, mr labelseq.ID) bool {
	i, j := 0, len(list)
	for i < j {
		h := int(uint(i+j) >> 1)
		if list[h].hub < hub {
			i = h + 1
		} else {
			j = h
		}
	}
	for ; i < len(list) && list[i].hub == hub; i++ {
		if list[i].mr == mr {
			return true
		}
	}
	return false
}

// joinHas merge-joins two hub-sorted entry lists and reports whether some
// hub carries mr on both sides — Case 1 of Definition 4 on entry lists.
func joinHas(a, b []entry, mr labelseq.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hub < b[j].hub:
			i++
		case a[i].hub > b[j].hub:
			j++
		default:
			hub := a[i].hub
			foundA, foundB := false, false
			for ; i < len(a) && a[i].hub == hub; i++ {
				if a[i].mr == mr {
					foundA = true
				}
			}
			for ; j < len(b) && b[j].hub == hub; j++ {
				if b[j].mr == mr {
					foundB = true
				}
			}
			if foundA && foundB {
				return true
			}
		}
	}
	return false
}

// assertMatchesLists checks the packed index against the list oracle for
// every vertex pair and every interned MR.
func assertMatchesLists(t *testing.T, ix *Index, o listOracle) {
	t.Helper()
	n := ix.g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		for d := graph.Vertex(0); int(d) < n; d++ {
			for mr := 0; mr < ix.dict.Len(); mr++ {
				if got, want := ix.queryByID(s, d, labelseq.ID(mr)), o.queryByID(s, d, labelseq.ID(mr)); got != want {
					t.Fatalf("queryByID(%d, %d, mr %d) = %v, entry lists say %v", s, d, mr, got, want)
				}
			}
		}
	}
}

// packedPropertyGraphs are the generator family of the equivalence suite:
// Erdős–Rényi, Barabási–Albert, and the uniform random multigraph.
func packedPropertyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er, err := gen.ER(60, 220, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BA(60, 3, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	return map[string]*graph.Graph{
		"er":      er,
		"ba":      ba,
		"uniform": randomGraph(r, 48, 3, 200),
	}
}

// TestPackedEquivalenceProperty: across the generator family and k 1..3,
// the packed index answers every (s, t, MR) exactly like the entry lists it
// was packed from, and matches the online traversal on a sample.
func TestPackedEquivalenceProperty(t *testing.T) {
	for name, g := range packedPropertyGraphs(t) {
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) {
				packed, lists := buildWithOracle(t, g, Options{K: k}, allRules)
				// Exhaustive packed == lists over every pair and MR.
				assertMatchesLists(t, packed, lists)
				// Sampled equality against the traversal oracle ties both
				// to ground truth.
				r := rand.New(rand.NewSource(int64(k*10 + 1)))
				constraints := PrimitiveConstraints(g.NumLabels(), k)
				n := g.NumVertices()
				for i := 0; i < 150; i++ {
					s := graph.Vertex(r.Intn(n))
					d := graph.Vertex(r.Intn(n))
					l := constraints[r.Intn(len(constraints))]
					got, err := packed.Query(s, d, l)
					if err != nil {
						t.Fatalf("Query(%d, %d, %v): %v", s, d, l, err)
					}
					want, err := traversal.EvalRLC(g, s, d, l)
					if err != nil {
						t.Fatalf("EvalRLC(%d, %d, %v): %v", s, d, l, err)
					}
					if got != want {
						t.Fatalf("Query(%d, %d, %v) = %v, traversal says %v", s, d, l, got, want)
					}
				}
			})
		}
	}
}

// sectionBytes concatenates sections first..last of a rendered bundle as
// (id u32, length u64, payload) records — the byte image the golden tests
// pin.
func sectionBytes(t *testing.T, data []byte, first, last uint32) []byte {
	t.Helper()
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var tmp [8]byte
	for id := first; id <= last; id++ {
		b, ok := f.Section(id)
		if !ok {
			t.Fatalf("bundle missing section %d", id)
		}
		binary.LittleEndian.PutUint32(tmp[:4], id)
		out = append(out, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(b)))
		out = append(out, tmp[:]...)
		out = append(out, b...)
	}
	return out
}

// TestGoldenPackedSections pins the packed sections' bytes for the paper's
// Fig. 2 graph at k = 2. A failure means the on-disk packed format or the
// deterministic interning order changed — both are compatibility breaks for
// bundles already in the field. Regenerate deliberately with
// RLC_UPDATE_GOLDEN=1.
func TestGoldenPackedSections(t *testing.T) {
	_, data := bundleBytes(t, graph.Fig2(), 2)
	got := sectionBytes(t, data, secPackedMeta, secPackedSetDesc)
	golden := filepath.Join("testdata", "fig2_k2_packed.golden")
	if os.Getenv("RLC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("packed sections differ from golden: got %d bytes, want %d", len(got), len(want))
	}
}

// TestSnapshotPackedSemanticCorruption drives openPacked's structural
// validation: bundles whose packed block is internally inconsistent must be
// rejected typed, never panic, never open.
func TestSnapshotPackedSemanticCorruption(t *testing.T) {
	_, base := bundleBytes(t, graph.Fig2(), 2)
	cases := []struct {
		name   string
		mutate func(secs map[uint32][]byte)
	}{
		{"packed-meta-truncated", func(s map[uint32][]byte) { s[secPackedMeta] = s[secPackedMeta][:8] }},
		{"packed-setcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][0]++ }},
		{"packed-reserved-nonzero", func(s map[uint32][]byte) { s[secPackedMeta][4] = 1 }},
		{"packed-groupcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][8]++ }},
		{"packed-wordcount-drift", func(s map[uint32][]byte) { s[secPackedMeta][16]++ }},
		{"packed-missing-block", func(s map[uint32][]byte) {
			for id := uint32(secPackedMeta); id <= secPackedSetDesc; id++ {
				delete(s, id)
			}
		}},
		{"packed-entrycount-drift", func(s map[uint32][]byte) {
			s[secPackedSets][0] ^= 0x01 // one MR more or less than meta records
		}},
		{"packed-set-bit-past-dict", func(s map[uint32][]byte) {
			// Trade the first set's lowest MR (Fig. 2 interns 6, all in byte
			// 0) for id 63: same entry count, but entries would decode an MR
			// the dictionary does not have.
			b := s[secPackedSets]
			b[0] &= b[0] - 1
			b[7] |= 0x80
		}},
		{"packed-missing-groups", func(s map[uint32][]byte) { delete(s, secPackedGroups) }},
		{"packed-missing-outoff", func(s map[uint32][]byte) { delete(s, secPackedOutOff) }},
		{"packed-missing-inoff", func(s map[uint32][]byte) { delete(s, secPackedInOff) }},
		{"packed-missing-sets", func(s map[uint32][]byte) { delete(s, secPackedSets) }},
		{"packed-missing-desc", func(s map[uint32][]byte) { delete(s, secPackedSetDesc) }},
		{"packed-desc-span-zero", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][8:12], []byte{0, 0, 0, 0})
		}},
		{"packed-desc-window-oob", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][4:8], []byte{0xff, 0xff, 0xff, 0xff})
		}},
		{"packed-desc-off-oob", func(s map[uint32][]byte) {
			copy(s[secPackedSetDesc][0:4], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"packed-outoff-nonzero", func(s map[uint32][]byte) { s[secPackedOutOff][0] = 1 }},
		{"packed-outoff-overshoot", func(s map[uint32][]byte) {
			// An offset past the group array that a later one walks back
			// from: ordered at vertex 0, so only a bound check stops the
			// slice (FuzzOpenSnapshot found the panic).
			copy(s[secPackedOutOff][4:8], []byte{0x30, 0x30, 0x30, 0x30})
		}},
		{"packed-inoff-decreasing", func(s map[uint32][]byte) {
			b := s[secPackedInOff]
			copy(b[len(b)-4:], []byte{0, 0, 0, 0})
		}},
		{"packed-set-oob", func(s map[uint32][]byte) {
			b := s[secPackedGroups]
			copy(b[4:8], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"packed-hub-negative", func(s map[uint32][]byte) {
			b := s[secPackedGroups]
			copy(b[0:4], []byte{0xff, 0xff, 0xff, 0xff})
		}},
		{"packed-hub-duplicate", func(s map[uint32][]byte) {
			// Find a per-vertex list with >= 2 groups and give its first two
			// the same hub — a violation of the strictly-increasing invariant
			// groupHas's binary search relies on.
			g := s[secPackedGroups]
			for _, offB := range [][]byte{s[secPackedOutOff], s[secPackedInOff]} {
				for i := 0; i+8 <= len(offB); i += 4 {
					lo := int(binary.LittleEndian.Uint32(offB[i:]))
					hi := int(binary.LittleEndian.Uint32(offB[i+4:]))
					if hi-lo >= 2 {
						copy(g[(lo+1)*8:(lo+1)*8+4], g[lo*8:lo*8+4])
						return
					}
				}
			}
			panic("fixture has no packed list with >= 2 groups")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rebundle(t, base, tc.mutate)
			s, err := OpenSnapshotBytes(data)
			if err == nil {
				s.Close()
				t.Fatal("packed corruption accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
			// A bundle with no index at all says which section it wanted.
			if tc.name == "packed-missing-block" && !strings.Contains(err.Error(), "missing packed-meta section (id 15)") {
				t.Fatalf("error does not name the missing packed-meta section: %v", err)
			}
		})
	}
}

// TestSnapshotIgnoresRetiredSections: ids 5-7 once held a copy of the
// in-adjacency and ids 10-12 the entry arrays. A bundle that still carries
// them is served from its out-adjacency and its packed block; their payload
// is never decoded, only checksummed like any section the reader does not
// know.
func TestSnapshotIgnoresRetiredSections(t *testing.T) {
	g := graph.Fig2()
	fresh, base := bundleBytes(t, g, 2)
	data := rebundle(t, base, func(s map[uint32][]byte) {
		for _, id := range []uint32{5, 6, 7, 10, 11, 12} {
			s[id] = []byte("not an in-adjacency or entry array")
		}
	})
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatalf("bundle with retired sections 5-7 and 10-12 does not open: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, fresh, s.Index())
}

// BenchmarkQueryPacked measures the query path on one mid-size random graph,
// for single queries and the batch path.
func BenchmarkQueryPacked(b *testing.B) {
	r := rand.New(rand.NewSource(803))
	g := randomGraph(r, 2000, 4, 10000)
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	qs := randomBatch(r, g, 2, 4096)
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Query(q.S, q.T, q.L); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-into", func(b *testing.B) {
		b.ReportAllocs()
		var buf []BatchResult
		for i := 0; i < b.N; i++ {
			buf = ix.QueryBatchInto(qs, 0, buf)
		}
	})
}

// FuzzPackedEquivalence is the differential fuzzer of the packed
// representation: arbitrary bytes decode into a small graph plus a query
// (the quickGraphSpec scheme), which is answered simultaneously by the
// packed index, the builder's pre-pack entry lists, and — to anchor both —
// the online traversal. Any divergence fails. The option byte picks the
// build (fuzzOptions): every access order, through Build with every pruning
// rule on — where BuildReference must also write Build's bundle bytes — and
// through BuildReference under each pruning ablation.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3, 1, 4}, uint8(1), uint8(4), []byte{0, 1}, uint8(0))
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 2, 0}, uint8(0), uint8(2), []byte{1}, uint8(0))
	f.Add([]byte{5, 2, 6, 6, 2, 5}, uint8(5), uint8(6), []byte{2, 0}, uint8(0))
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 2, 0, 2, 0, 1}, uint8(2), uint8(1), []byte{0}, uint8(3|16))
	f.Add([]byte{3, 1, 4, 4, 1, 3, 4, 2, 5, 5, 2, 3}, uint8(3), uint8(5), []byte{1, 2}, uint8(2|4|8))
	f.Fuzz(func(t *testing.T, edges []byte, s, d uint8, l []byte, o uint8) {
		spec := quickGraphSpec{Edges: edges, S: s, T: d, L: l}
		g := spec.graph()
		if g.NumVertices() == 0 {
			return
		}
		opts, rules := fuzzOptions(o)
		packed, lists := buildWithOracle(t, g, opts, rules)
		if productionRules(rules) {
			ref, err := BuildReference(g, opts, rules)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialize(t, ref), serialize(t, packed)) {
				t.Fatalf("BuildReference and Build write different bundles (options %+v)", opts)
			}
		}
		src := graph.Vertex(spec.S) % 10
		dst := graph.Vertex(spec.T) % 10
		q := spec.constraint()
		if got, err := packed.Query(src, dst, q); err == nil {
			want, terr := traversal.EvalRLC(g, src, dst, q)
			if terr != nil {
				t.Fatalf("EvalRLC: %v", terr)
			}
			if got != want {
				t.Fatalf("Query(%d, %d, %v) = %v, traversal says %v", src, dst, q, got, want)
			}
		}
		// Beyond the single derived query, the two forms must agree on every
		// interned MR for the derived pair — this is where bitset packing
		// and hash-consing bugs actually surface.
		for mr := 0; mr < packed.dict.Len(); mr++ {
			if packed.queryByID(src, dst, labelseq.ID(mr)) != lists.queryByID(src, dst, labelseq.ID(mr)) {
				t.Fatalf("queryByID(%d, %d, mr %d) diverges between packed and entry lists", src, dst, mr)
			}
		}
	})
}

// fuzzOptions decodes FuzzPackedEquivalence's option byte into a k = 2
// build: bits 0-1 pick the access order, bits 2, 3 and 4 switch PR1, PR2
// and PR3 off. Zero is the default build.
func fuzzOptions(o uint8) (Options, Pruning) {
	return Options{K: 2}, Pruning{PR1: o&4 == 0, PR2: o&8 == 0, PR3: o&16 == 0, Order: Order(o & 3)}
}
