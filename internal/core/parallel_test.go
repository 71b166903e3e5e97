package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
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

// TestParallelGoldenByteIdentity is the golden pin of the determinism
// guarantee: the Fig. 2 index built with 1, 2, 4, and 8 workers must write
// a bundle byte-for-byte identical to the one the checked-in v1 golden index
// writes after Load.
func TestParallelGoldenByteIdentity(t *testing.T) {
	g := graph.Fig2()
	loaded, err := LoadFile(filepath.Join("testdata", "fig2_k2_v1.rlc"), g)
	if err != nil {
		t.Fatal(err)
	}
	golden := serialize(t, loaded)
	for _, workers := range []int{1, 2, 4, 8} {
		ix, st, err := BuildWithStats(g, Options{K: 2, BuildWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := EffectiveBuildWorkers(g.NumVertices(), workers); st.Workers != want {
			t.Errorf("workers=%d: stats.Workers = %d, want %d", workers, st.Workers, want)
		}
		if got := serialize(t, ix); !bytes.Equal(got, golden) {
			t.Errorf("workers=%d: serialization differs from the golden index (%d vs %d bytes)",
				workers, len(got), len(golden))
		}
	}
}

// TestParallelBuildMatchesSequential is the property-based equivalence
// check: on randomized ER/BA/uniform graphs across k in {1..3} and every
// Order variant, a parallel build must produce the same serialized bytes
// (entry lists, interning order, access order) and the same algorithm
// counters as the sequential build, and its query answers must match the
// online-traversal reference on a sampled workload.
func TestParallelBuildMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(905))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	orders := []Order{OrderInOut, OrderDegreeSum, OrderNatural, OrderReverse}
	for trial := 0; trial < trials; trial++ {
		var g *graph.Graph
		var err error
		switch trial % 3 {
		case 0:
			g, err = gen.ER(120+r.Intn(120), 500+r.Intn(400), 2+r.Intn(4), r.Int63())
		case 1:
			g, err = gen.BA(120+r.Intn(120), 2+r.Intn(3), 2+r.Intn(4), r.Int63())
		default:
			g = randomGraph(r, 6+r.Intn(40), 1+r.Intn(3), 2+r.Intn(160))
		}
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + trial%3
		order := orders[trial%len(orders)]
		opts := Options{K: k, Order: order}
		seqIx, seqSt, err := BuildWithStats(g, opts)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		seqBytes := serialize(t, seqIx)

		workers := []int{2, 3 + r.Intn(6)}
		for _, w := range workers {
			opts.BuildWorkers = w
			parIx, parSt, err := BuildWithStats(g, opts)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if !bytes.Equal(serialize(t, parIx), seqBytes) {
				t.Fatalf("trial %d (k=%d order=%d workers=%d, %d vertices %d edges): parallel build serialized differently from sequential",
					trial, k, order, w, g.NumVertices(), g.NumEdges())
			}
			if parSt.Inserted != seqSt.Inserted ||
				parSt.PrunedPR1 != seqSt.PrunedPR1 ||
				parSt.PrunedPR2 != seqSt.PrunedPR2 ||
				parSt.PrunedDup != seqSt.PrunedDup ||
				parSt.KernelSearchStates != seqSt.KernelSearchStates ||
				parSt.KernelBFSRuns != seqSt.KernelBFSRuns ||
				parSt.KernelBFSNodes != seqSt.KernelBFSNodes {
				t.Fatalf("trial %d workers=%d: algorithm counters diverged\nseq: %+v\npar: %+v",
					trial, w, seqSt, parSt)
			}
			if parSt.Speculated < int64(g.NumVertices()) {
				t.Errorf("trial %d workers=%d: Speculated = %d, want >= %d",
					trial, w, parSt.Speculated, g.NumVertices())
			}
			if parSt.Committed+parSt.Rerun != int64(g.NumVertices()) {
				t.Errorf("trial %d workers=%d: Committed %d + Rerun %d != vertices %d",
					trial, w, parSt.Committed, parSt.Rerun, g.NumVertices())
			}

			// Sampled query workload against the traversal reference.
			constraints := PrimitiveConstraints(g.NumLabels(), k)
			for q := 0; q < 60; q++ {
				s := graph.Vertex(r.Intn(g.NumVertices()))
				d := graph.Vertex(r.Intn(g.NumVertices()))
				l := constraints[r.Intn(len(constraints))]
				got, err := parIx.Query(s, d, l)
				if err != nil {
					t.Fatal(err)
				}
				want, err := traversal.EvalRLC(g, s, d, l)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d workers=%d: (%d, %d, %v+) = %v, traversal says %v",
						trial, w, s, d, l, got, want)
				}
			}
		}
	}
}

// TestParallelBuildPruningAblations: the byte-identity guarantee must hold
// with any combination of pruning rules disabled (the ablation paths take
// different branches through insertCore and kernelBFS).
func TestParallelBuildPruningAblations(t *testing.T) {
	r := rand.New(rand.NewSource(906))
	g := randomGraph(r, 40, 3, 160)
	for _, opts := range []Options{
		{K: 2, DisablePR1: true},
		{K: 2, DisablePR2: true},
		{K: 2, DisablePR3: true},
		{K: 2, DisablePR1: true, DisablePR2: true, DisablePR3: true},
	} {
		seqIx, err := Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := serialize(t, seqIx)
		opts.BuildWorkers = 4
		parIx, err := Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, parIx), seqBytes) {
			t.Errorf("opts %+v: parallel build diverged from sequential", opts)
		}
	}
}

// TestBuildWorkersValidation pins the BuildWorkers contract: negative
// counts are rejected, and the effective count clamps to GOMAXPROCS and to
// the vertex count.
func TestBuildWorkersValidation(t *testing.T) {
	g := graph.Fig2()
	if _, err := Build(g, Options{K: 2, BuildWorkers: -1}); err == nil {
		t.Error("BuildWorkers = -1 accepted, want error")
	}
	if got := EffectiveBuildWorkers(6, 100); got != 6 {
		t.Errorf("EffectiveBuildWorkers(6, 100) = %d, want 6", got)
	}
	if got := EffectiveBuildWorkers(1000, 3); got != 3 {
		t.Errorf("EffectiveBuildWorkers(1000, 3) = %d, want 3", got)
	}
	if got := EffectiveBuildWorkers(1000, 0); got < 1 {
		t.Errorf("EffectiveBuildWorkers(1000, 0) = %d, want >= 1", got)
	}
}

// TestParallelBuildRace exercises the parallel build under the race
// detector: one parallel build per goroutine-visible index, racing against
// concurrent single and batch queries on a *different*, already-frozen
// index over the same shared graph. (Build mutates only its own index;
// the graph is immutable and read by everyone.)
func TestParallelBuildRace(t *testing.T) {
	r := rand.New(rand.NewSource(907))
	g := randomGraph(r, 200, 3, 900)
	frozen := mustBuild(t, g, Options{K: 2})
	queries := randomBatch(rand.New(rand.NewSource(908)), g, 2, 256)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[rr.Intn(len(queries))]
				if _, err := frozen.Query(q.S, q.T, q.L); err != nil {
					t.Error(err)
					return
				}
				frozen.QueryBatch(queries[:64], 2)
			}
		}(int64(w))
	}

	seqBytes := serialize(t, frozen)
	for i := 0; i < 3; i++ {
		ix, err := Build(g, Options{K: 2, BuildWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, ix), seqBytes) {
			t.Fatal("parallel build under concurrent load diverged from sequential")
		}
	}
	close(stop)
	wg.Wait()
}

// TestRollbackDropsRememberedLookup forces the path a validated speculation
// never takes: a replay whose insert right after a newly interned minimum
// repeat fails, so apply rolls back and the dictionary is cut back past the
// ID the committer remembers from its last lookup. The sequential re-run
// that follows (what the scheduler does with a vertex that cannot commit)
// must ask the dictionary again — a remembered ID would skip the intern,
// leave entries naming a sequence the dictionary does not hold, and hand the
// ID to the next new sequence. Every vertex whose speculation interns
// something is put through this, so the truncation happens both on an empty
// dictionary and on a populated one, and the finished index must still be
// the sequential build's, byte for byte.
func TestRollbackDropsRememberedLookup(t *testing.T) {
	g, err := gen.ER(60, 240, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, BuildWorkers: 1}
	want := serialize(t, mustBuild(t, g, opts))

	dict, err := labelseq.NewDict(g.NumLabels(), opts.K)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ix := &Index{g: g, k: opts.K, opts: opts, dict: dict, order: accessOrder(g, opts.Order), rank: make([]int32, n)}
	for r, v := range ix.order {
		ix.rank[v] = int32(r)
	}
	b := newBuilder(ix)
	b.dirtyOut, b.dirtyIn = make([]uint64, n), make([]uint64, n)
	w := newSpecBuilder(b)
	c := &committer{b: b}

	rollbacks := 0
	for _, v := range ix.order {
		b.dirtyStamp++
		res := w.speculate(v)
		fresh := slices.IndexFunc(res.inserts, func(ins specInsert) bool { return int(ins.mrID) >= dict.Len() })
		if fresh < 0 {
			if !c.apply(&res) {
				t.Fatalf("vertex %d: untouched speculation did not commit", v)
			}
			continue
		}
		// The same insert twice in a row: the first interns its minimum
		// repeat and appends, the second finds that entry and is pruned.
		res.inserts = slices.Insert(res.inserts, fresh+1, res.inserts[fresh])
		before := dict.Len()
		if c.apply(&res) {
			t.Fatalf("vertex %d: replay with a repeated insert committed", v)
		}
		if dict.Len() != before {
			t.Fatalf("vertex %d: dictionary holds %d sequences after rollback, had %d", v, dict.Len(), before)
		}
		rollbacks++
		b.kbs(v, backward)
		b.kbs(v, forward)
		for _, lists := range [][][]entry{b.out, b.in} {
			for y, list := range lists {
				for _, e := range list {
					if int(e.mr) >= dict.Len() {
						t.Fatalf("vertex %d: re-run left an entry at %d with MR id %d, dictionary holds %d", v, y, e.mr, dict.Len())
					}
				}
			}
		}
	}
	if rollbacks < 2 {
		t.Fatalf("%d forced rollbacks; want one on the empty dictionary and one later", rollbacks)
	}
	if err := ix.seal(b.out, b.in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, ix), want) {
		t.Fatal("index built through forced rollbacks differs from the sequential build")
	}
}

// BenchmarkBuildParallel times index construction across worker counts on
// one mid-size ER graph (the satellite of BenchmarkQueryBatch). On a
// single-core box the >1-worker numbers measure scheduler overhead, not
// speedup.
func BenchmarkBuildParallel(b *testing.B) {
	g, err := gen.ER(4000, 16000, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{K: 2, BuildWorkers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
