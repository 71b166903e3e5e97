package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
	"github.com/g-rpqs/rlc-go/internal/traversal"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// tierBudgets returns the budget sweep for a graph whose full (unbudgeted)
// index is full: effectively zero (everything demoted), two mid fractions,
// and the full size itself (nothing demoted — tiering is a no-op).
func tierBudgets(full int64) []int64 {
	return []int64{1, full / 4, full / 2, full}
}

// TestTierBuildDefaults pins the representation switch: a budget below the
// full index size produces a tiered index with coherent stats; no budget (or
// a large one) leaves the index untiered.
func TestTierBuildDefaults(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(41)), 48, 3, 220)
	plain := mustBuild(t, g, Options{K: 2})
	if plain.Tiered() {
		t.Fatal("unbudgeted build is tiered")
	}
	if got := plain.Stats().Tiers; got != (TierStats{}) {
		t.Fatalf("untiered index reports tier stats %+v", got)
	}

	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: 1})
	if !ix.Tiered() {
		t.Fatal("budgeted build is not tiered")
	}
	st := ix.TierStats()
	if st.Budget != 1 {
		t.Fatalf("Budget = %d, want 1", st.Budget)
	}
	if st.RetainedVertices+st.DemotedVertices != g.NumVertices() || st.DemotedVertices == 0 {
		t.Fatalf("implausible tier split: %+v", st)
	}
	if st.FilterBytes <= 0 || st.BloomBitsPerFilter < 64 || st.BloomBitsPerFilter > 4096 {
		t.Fatalf("implausible filter shape: %+v", st)
	}
	if err := ix.verifyTiers(); err != nil {
		t.Fatalf("fresh tiered index fails self-verification: %v", err)
	}
	// Demotion is physical: the demoted vertices' entry lists are gone.
	if ix.NumEntries() >= plain.NumEntries() {
		t.Fatalf("budget 1 kept %d of %d entries", ix.NumEntries(), plain.NumEntries())
	}

	if _, err := Build(g, Options{K: 2, MaxIndexBytes: -1}); err == nil {
		t.Fatal("negative MaxIndexBytes accepted")
	}
}

// TestTierEquivalenceProperty is the tentpole's correctness pin: across the
// generator family, k 1..3, and the budget sweep (including effectively-zero
// and no-demotion budgets), the budgeted index answers every (s, t, L)
// exactly like the unbudgeted one, and both match the online traversal on a
// sample. Filters may only cost speed, never answers.
func TestTierEquivalenceProperty(t *testing.T) {
	for name, g := range packedPropertyGraphs(t) {
		for k := 1; k <= 3; k++ {
			full := mustBuild(t, g, Options{K: k})
			// The budget-1 build is the floor: the smallest layout the tier
			// machinery can produce for this index. Budgets below the floor
			// yield exactly it, so every build obeys size <= max(budget, floor).
			floor := mustBuild(t, g, Options{K: k, MaxIndexBytes: 1}).SizeBytes()
			for _, budget := range tierBudgets(full.SizeBytes()) {
				t.Run(fmt.Sprintf("%s/k%d/b%d", name, k, budget), func(t *testing.T) {
					ix := mustBuild(t, g, Options{K: k, MaxIndexBytes: budget})
					if budget >= full.SizeBytes() {
						if ix.Tiered() {
							t.Fatal("budget >= full size still tiered")
						}
					} else if !ix.Tiered() {
						t.Fatalf("budget %d of %d not tiered", budget, full.SizeBytes())
					}
					if sz := ix.SizeBytes(); sz > budget && sz > floor {
						t.Fatalf("size %d exceeds both budget %d and floor %d", sz, budget, floor)
					} else if sz > full.SizeBytes() {
						t.Fatalf("budgeted size %d exceeds the unbudgeted %d", sz, full.SizeBytes())
					}
					assertEquivalent(t, g, full, ix)
					r := rand.New(rand.NewSource(int64(k*100 + len(name))))
					constraints := PrimitiveConstraints(g.NumLabels(), k)
					n := g.NumVertices()
					for i := 0; i < 150; i++ {
						s := graph.Vertex(r.Intn(n))
						d := graph.Vertex(r.Intn(n))
						l := constraints[r.Intn(len(constraints))]
						got, err := ix.Query(s, d, l)
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
}

// TestTierCannotShrinkStaysExact pins the guardrail on overhead-dominated
// graphs: when every vertex's entry lists are cheaper than the per-vertex
// filter floor, no tiered layout beats the full index, so ANY budget leaves
// the index untiered and bit-identical to an unbudgeted build — a size
// budget must never grow the index.
func TestTierCannotShrinkStaysExact(t *testing.T) {
	g := graph.Fig2() // tiny lists: filters cannot pay for themselves
	plain, plainData := bundleBytes(t, g, 2)
	for _, budget := range []int64{1, plain.SizeBytes() / 2} {
		ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: budget})
		if ix.Tiered() {
			t.Fatalf("budget %d tiered an overhead-dominated graph (size %d -> %d)",
				budget, plain.SizeBytes(), ix.SizeBytes())
		}
		if ix.SizeBytes() != plain.SizeBytes() {
			t.Fatalf("untiered fallback changed the size: %d, want %d", ix.SizeBytes(), plain.SizeBytes())
		}
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plainData, buf.Bytes()) {
			t.Fatalf("budget %d bundle differs from the unbudgeted bundle", budget)
		}
	}
}

// TestTierBudgetSweepDatasets holds the budget contract on the paper's
// thirteen graph shapes rather than random ones: a size restriction trades
// time and never an answer. Every replica is built untiered and at 1/2, 1/4
// and 1/10 of its untiered size; every index must answer a seeded workload
// (true and false queries, ground truth by BiBFS) exactly; a budgeted size
// may not grow as the budget tightens nor exceed the untiered size; and a
// replica whose lists are cheaper than the filter floor (TW) must come out
// byte-equal to the untiered build at every budget.
func TestTierBudgetSweepDatasets(t *testing.T) {
	demoted := false
	for _, d := range datasets.All() {
		t.Run(d.Name, func(t *testing.T) {
			g, err := d.Generate(300, 1)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.Generate(g, workload.Options{NumTrue: 100, NumFalse: 100, ConcatLen: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			pool := w.All()
			exact := func(what string, ix *Index) {
				t.Helper()
				for _, q := range pool {
					got, err := ix.Query(q.S, q.T, q.L)
					if err != nil {
						t.Fatalf("%s: Query(%d, %d, %v): %v", what, q.S, q.T, q.L, err)
					}
					if got != q.Expected {
						t.Fatalf("%s: Query(%d, %d, %v) = %v, BiBFS says %v", what, q.S, q.T, q.L, got, q.Expected)
					}
				}
			}

			full, fullData := bundleBytes(t, g, 2)
			exact("untiered", full)
			prev := full.SizeBytes()
			for _, div := range []int64{2, 4, 10} {
				what := fmt.Sprintf("budget 1/%d", div)
				ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: full.SizeBytes() / div})
				size := ix.SizeBytes()
				if size > prev {
					t.Fatalf("%s: %d B, larger than the %d B of the looser budget", what, size, prev)
				}
				prev = size
				if !ix.Tiered() {
					var buf bytes.Buffer
					if err := ix.WriteSnapshot(&buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fullData, buf.Bytes()) {
						t.Fatalf("%s: refused to tier, yet the bundle differs from the untiered one", what)
					}
				} else if ix.TierStats().DemotedVertices > 0 {
					demoted = true
				}
				exact(what, ix)
			}
		})
	}
	if !demoted {
		t.Error("no replica demoted a vertex at any budget: the sweep never reached the filter tier")
	}
}

// TestTierAllFilteredStillExact is the budget-smaller-than-one-vertex edge
// case: a budget of one byte demotes every vertex — the index is pure
// filters — yet every answer stays exact via the filter/traversal tiers.
func TestTierAllFilteredStillExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomGraph(r, 48, 3, 220)
	full := mustBuild(t, g, Options{K: 2})
	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: 1})
	st := ix.TierStats()
	if st.RetainedVertices != 0 || st.DemotedVertices != g.NumVertices() {
		t.Fatalf("budget 1 retained %d vertices", st.RetainedVertices)
	}
	if ix.NumEntries() != 0 {
		t.Fatalf("all-demoted index still has %d entries", ix.NumEntries())
	}
	assertEquivalent(t, g, full, ix)
	if st = ix.TierStats(); st.ExactHits != 0 {
		t.Fatalf("all-demoted index recorded %d exact hits", st.ExactHits)
	}
	if st.FilterDefinite+st.FilterMaybe == 0 {
		t.Fatal("no filter-tier traffic recorded")
	}
}

// TestTierBudgetLargerThanIndex pins the no-op direction byte-for-byte: a
// budget the full index fits produces a bundle bit-identical to an
// unbudgeted build's, so budgeted deployments of small graphs change
// nothing on disk.
func TestTierBudgetLargerThanIndex(t *testing.T) {
	g := graph.Fig2()
	plain, plainData := bundleBytes(t, g, 2)
	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: plain.SizeBytes() * 10})
	if ix.Tiered() {
		t.Fatal("oversized budget still tiered")
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainData, buf.Bytes()) {
		t.Fatal("oversized-budget bundle differs from unbudgeted bundle")
	}
}

// TestTierDeterministic: two budgeted builds of the same graph write the same
// bytes, tier sections included.
func TestTierDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := randomGraph(r, 64, 3, 300)
	full := mustBuild(t, g, Options{K: 2})
	budget := full.SizeBytes() / 3
	first := mustBuild(t, g, Options{K: 2, MaxIndexBytes: budget})
	if !first.Tiered() {
		t.Fatalf("budget %d not tiered", budget)
	}
	second := mustBuild(t, g, Options{K: 2, MaxIndexBytes: budget})
	if !bytes.Equal(serialize(t, first), serialize(t, second)) {
		t.Fatal("two budgeted builds of the same graph serialized differently")
	}
}

// TestTierSnapshotRoundTrip covers every tier mix: all-demoted, partial, and
// none round-trip through a bundle with identical answers, a preserved
// budget, and truthful BuildOptions for fold inheritance.
func TestTierSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	g := randomGraph(r, 40, 3, 180)
	full := mustBuild(t, g, Options{K: 2})
	for _, budget := range tierBudgets(full.SizeBytes()) {
		t.Run(fmt.Sprintf("b%d", budget), func(t *testing.T) {
			ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: budget})
			var buf bytes.Buffer
			if err := ix.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSnapshotBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Verify(); err != nil {
				t.Fatalf("fresh tiered bundle fails Verify: %v", err)
			}
			got := s.Index()
			if got.Tiered() != ix.Tiered() {
				t.Fatalf("Tiered() = %v after round trip, want %v", got.Tiered(), ix.Tiered())
			}
			if ix.Tiered() {
				want, have := ix.TierStats(), got.TierStats()
				if want.Budget != have.Budget || want.RetainedVertices != have.RetainedVertices ||
					want.DemotedVertices != have.DemotedVertices || want.UnionSets != have.UnionSets ||
					want.BloomBitsPerFilter != have.BloomBitsPerFilter || want.FilterBytes != have.FilterBytes {
					t.Fatalf("tier stats drift: built %+v, opened %+v", want, have)
				}
				if got.BuildOptions().MaxIndexBytes != budget {
					t.Fatalf("BuildOptions().MaxIndexBytes = %d after open, want %d",
						got.BuildOptions().MaxIndexBytes, budget)
				}
			}
			assertEquivalent(t, g, full, got)
		})
	}
}

// TestTierCounters pins the per-tier accounting: both-retained queries land
// in ExactHits, filter-decided queries in FilterDefinite, and traversal
// fallbacks in FilterMaybe — and the three cover all queries.
func TestTierCounters(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	g := randomGraph(r, 48, 3, 220)
	full := mustBuild(t, g, Options{K: 2})
	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: full.SizeBytes() / 2})
	st := ix.TierStats()
	if st.RetainedVertices == 0 || st.DemotedVertices == 0 {
		t.Fatalf("test needs a mixed split, got %+v", st)
	}
	queries := 0
	for s := graph.Vertex(0); int(s) < g.NumVertices(); s++ {
		for d := graph.Vertex(0); int(d) < g.NumVertices(); d++ {
			for mr := 0; mr < ix.dict.Len(); mr++ {
				ix.queryByID(s, d, labelseq.ID(mr))
				queries++
			}
		}
	}
	st = ix.TierStats()
	if st.ExactHits == 0 || st.FilterDefinite == 0 {
		t.Fatalf("tier counters did not move: %+v", st)
	}
	if st.ExactHits+st.FilterDefinite+st.FilterMaybe != int64(queries) {
		t.Fatalf("counters sum to %d, ran %d queries: %+v",
			st.ExactHits+st.FilterDefinite+st.FilterMaybe, queries, st)
	}
}

// TestTierProbesDelegate: the precomputed Source/Target probes (the hybrid
// evaluator's and the dynamic overlay's inner loop) must stay exact when
// either endpoint is demoted.
func TestTierProbesDelegate(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g := randomGraph(r, 40, 3, 180)
	full := mustBuild(t, g, Options{K: 2})
	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: full.SizeBytes() / 2})
	if !ix.Tiered() {
		t.Fatal("not tiered")
	}
	constraints := []labelseq.Seq{{0}, {1}, {0, 1}, {2, 0}}
	n := g.NumVertices()
	for _, l := range constraints {
		for fixed := graph.Vertex(0); int(fixed) < n; fixed++ {
			tp, err := ix.NewTargetProbe(fixed, l)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := ix.NewSourceProbe(fixed, l)
			if err != nil {
				t.Fatal(err)
			}
			for v := graph.Vertex(0); int(v) < n; v++ {
				if want, _ := full.Query(v, fixed, l); tp.Reaches(v) != want {
					t.Fatalf("TargetProbe(%d).Reaches(%d) with %v != %v", fixed, v, l, want)
				}
				if want, _ := full.Query(fixed, v, l); sp.Reaches(v) != want {
					t.Fatalf("SourceProbe(%d).Reaches(%d) with %v != %v", fixed, v, l, want)
				}
			}
		}
	}
}

// tieredBundle builds a tiered bundle of g for corruption tests and returns
// its bytes.
func tieredBundle(t *testing.T, g *graph.Graph, budgetDiv int64) []byte {
	t.Helper()
	full := mustBuild(t, g, Options{K: 2})
	budget := int64(1)
	if budgetDiv > 0 {
		budget = full.SizeBytes() / budgetDiv
	}
	ix := mustBuild(t, g, Options{K: 2, MaxIndexBytes: budget})
	if !ix.Tiered() {
		t.Fatalf("budget %d of %d not tiered", budget, full.SizeBytes())
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTierSemanticCorruption drives openTiers' structural
// validation: bundles whose tier block is internally inconsistent must be
// rejected typed, never panic, never open.
func TestSnapshotTierSemanticCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	base := tieredBundle(t, randomGraph(r, 40, 3, 180), 2)
	cases := []struct {
		name   string
		mutate func(secs map[uint32][]byte)
	}{
		{"tier-meta-truncated", func(s map[uint32][]byte) { s[secTierMeta] = s[secTierMeta][:8] }},
		{"tier-reserved-nonzero", func(s map[uint32][]byte) { s[secTierMeta][12] = 1 }},
		{"tier-retains-everything", func(s map[uint32][]byte) {
			binary.LittleEndian.PutUint32(s[secTierMeta][0:], uint32(40))
		}},
		{"tier-retained-drift", func(s map[uint32][]byte) { s[secTierMeta][0]++ }},
		{"tier-bloomwords-zero", func(s map[uint32][]byte) {
			binary.LittleEndian.PutUint32(s[secTierMeta][4:], 0)
		}},
		{"tier-bloomwords-not-pow2", func(s map[uint32][]byte) {
			binary.LittleEndian.PutUint32(s[secTierMeta][4:], 3)
		}},
		{"tier-bloomwords-huge", func(s map[uint32][]byte) {
			binary.LittleEndian.PutUint32(s[secTierMeta][4:], 128)
		}},
		{"tier-budget-zero", func(s map[uint32][]byte) {
			binary.LittleEndian.PutUint64(s[secTierMeta][24:], 0)
		}},
		{"tier-setcount-drift", func(s map[uint32][]byte) { s[secTierMeta][8]++ }},
		{"tier-wordcount-drift", func(s map[uint32][]byte) { s[secTierMeta][16]++ }},
		{"tier-missing-union-out", func(s map[uint32][]byte) { delete(s, secTierUnionOut) }},
		{"tier-missing-union-in", func(s map[uint32][]byte) { delete(s, secTierUnionIn) }},
		{"tier-missing-sets", func(s map[uint32][]byte) { delete(s, secTierSets) }},
		{"tier-missing-desc", func(s map[uint32][]byte) { delete(s, secTierSetDesc) }},
		{"tier-missing-bloom", func(s map[uint32][]byte) { delete(s, secTierBloom) }},
		{"tier-union-set-oob", func(s map[uint32][]byte) {
			copy(s[secTierUnionOut][0:4], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
		{"tier-desc-span-zero", func(s map[uint32][]byte) {
			copy(s[secTierSetDesc][8:12], []byte{0, 0, 0, 0})
		}},
		{"tier-desc-window-oob", func(s map[uint32][]byte) {
			copy(s[secTierSetDesc][4:8], []byte{0xff, 0xff, 0xff, 0xff})
		}},
		{"tier-desc-off-oob", func(s map[uint32][]byte) {
			copy(s[secTierSetDesc][0:4], []byte{0xff, 0xff, 0xff, 0x7f})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rebundle(t, base, tc.mutate)
			s, err := OpenSnapshotBytes(data)
			if err == nil {
				s.Close()
				t.Fatal("tier corruption accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
		})
	}
}

// TestSnapshotVerifyCatchesTierDivergence pins the semantic layer: a tier
// block that is structurally sound (and re-checksummed clean) but stapled to
// the packed groups of an untiered build of the same graph must fail Verify —
// the tier split and the groups would describe two different indexes.
func TestSnapshotVerifyCatchesTierDivergence(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := randomGraph(r, 40, 3, 180)
	tiered := tieredBundle(t, g, 2)
	_, fullData := bundleBytes(t, g, 2)
	fullF, err := snapshot.OpenBytes(fullData)
	if err != nil {
		t.Fatal(err)
	}
	// Transplant the untiered build's (complete) packed block into the
	// tiered bundle, with the meta entry count that goes with it.
	data := rebundle(t, tiered, func(s map[uint32][]byte) {
		for id := uint32(secPackedMeta); id <= secPackedSetDesc; id++ {
			b, ok := fullF.Section(id)
			if !ok {
				t.Fatalf("full bundle missing section %d", id)
			}
			s[id] = append([]byte(nil), b...)
		}
		fullMeta, _ := fullF.Section(secMeta)
		copy(s[secMeta][32:40], fullMeta[32:40])
	})
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatalf("structurally sound divergence failed open: %v", err)
	}
	defer s.Close()
	err = s.Verify()
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Verify = %v, want typed ErrCorrupt", err)
	}
}

// TestGoldenTierSections pins cut selection and the tier sections' bytes
// for er60 at k = 2 under er60Budget, recorded from the builder that still
// selected cuts on the frozen entry array. A failure means the budget
// accounting, the cut walk, the union interning order or the bloom layout
// changed — deployed budgets would select different indexes. Regenerate
// deliberately with RLC_UPDATE_GOLDEN=1.
func TestGoldenTierSections(t *testing.T) {
	ix := mustBuild(t, er60(t), Options{K: 2, MaxIndexBytes: er60Budget})
	if !ix.Tiered() || ix.tiers.retainedRanks != 25 {
		t.Fatalf("er60 under %d bytes retains %+v, want 25 ranks", er60Budget, ix.TierStats())
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got := sectionBytes(t, buf.Bytes(), secTierMeta, secTierBloom)
	golden := filepath.Join("testdata", "er60_k2_tier.golden")
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
		t.Fatalf("tier sections differ from golden: got %d bytes, want %d", len(got), len(want))
	}
}

// TestTierFilterProbeAllocFree holds the tiered read path — queryTiered,
// probeTiered and every tier-2 helper it calls — to no allocation: after one
// warming pass, a sweep of every (s, t, mr) with a demoted endpoint
// allocates nothing. The sweep reaches all three probeTiered branches and
// every verdict each can return. tierTrue needs a demoted hub on a retained
// vertex's list, which PR2 prunes and, without PR2, PR1 does, so the sweep
// covers an index built without both as well. Under the race detector it
// leaves out the tier-3 searches (tierMaybe), whose evaluators sync.Pool may
// drop.
func TestTierFilterProbeAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	g := randomGraph(r, 48, 3, 220)
	type query struct {
		ix   *Index
		s, t graph.Vertex
		l    labelseq.Seq
	}
	var sweep []query
	branches := [3]string{"s retained, t demoted", "t retained, s demoted", "both demoted"}
	var seen [3][3]int // [branch][verdict]
	for _, opts := range []Options{{K: 2}, {K: 2, DisablePR1: true, DisablePR2: true}} {
		opts.MaxIndexBytes = mustBuild(t, g, opts).SizeBytes() / 2
		ix := mustBuild(t, g, opts)
		if !ix.Tiered() {
			t.Fatalf("%+v: not tiered", opts)
		}
		retained := ix.tiers.retainedRanks
		for s := graph.Vertex(0); int(s) < g.NumVertices(); s++ {
			for d := graph.Vertex(0); int(d) < g.NumVertices(); d++ {
				branch := 2
				switch {
				case ix.rank[s] < retained && ix.rank[d] < retained:
					continue
				case ix.rank[s] < retained:
					branch = 0
				case ix.rank[d] < retained:
					branch = 1
				}
				for mr := 0; mr < ix.dict.Len(); mr++ {
					v := ix.probeTiered(s, d, labelseq.ID(mr))
					seen[branch][v]++
					if v != tierMaybe || !raceEnabled {
						sweep = append(sweep, query{ix, s, d, ix.dict.Seq(labelseq.ID(mr))})
					}
				}
			}
		}
	}
	for b, name := range branches {
		for v, verdict := range [3]string{"tierFalse", "tierTrue", "tierMaybe"} {
			if seen[b][v] == 0 && (b < 2 || tierVerdict(v) != tierTrue) {
				t.Fatalf("no %s query with verdict %s in fixture", name, verdict)
			}
		}
	}
	answer := func() {
		for _, q := range sweep {
			if _, err := q.ix.Query(q.s, q.t, q.l); err != nil {
				t.Fatalf("Query(%d, %d, %v): %v", q.s, q.t, q.l, err)
			}
		}
	}
	answer() // warm: tier-3 automata compiled, a pooled evaluator grown
	if allocs := testing.AllocsPerRun(5, answer); allocs != 0 {
		t.Fatalf("a sweep of %d tiered queries allocates %.1f times", len(sweep), allocs)
	}
}
