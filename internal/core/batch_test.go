package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// randomBatch samples queries (valid constraints only) for g.
func randomBatch(r *rand.Rand, g *graph.Graph, k, count int) []BatchQuery {
	constraints := PrimitiveConstraints(g.NumLabels(), k)
	qs := make([]BatchQuery, count)
	for i := range qs {
		qs[i] = BatchQuery{
			S: graph.Vertex(r.Intn(g.NumVertices())),
			T: graph.Vertex(r.Intn(g.NumVertices())),
			L: constraints[r.Intn(len(constraints))],
		}
	}
	return qs
}

// TestQueryBatchMatchesQuery: QueryBatch must agree with Query position for
// position, whatever the worker count.
func TestQueryBatchMatchesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(800))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 20+r.Intn(30), 1+r.Intn(3), 40+r.Intn(150))
		ix := mustBuild(t, g, Options{K: 2})
		qs := randomBatch(r, g, 2, 500)
		want := make([]bool, len(qs))
		for i, q := range qs {
			ok, err := ix.Query(q.S, q.T, q.L)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ok
		}
		for _, workers := range []int{0, 1, 2, 7} {
			res := ix.QueryBatch(qs, workers)
			if len(res) != len(qs) {
				t.Fatalf("workers=%d: %d results for %d queries", workers, len(res), len(qs))
			}
			for i, rr := range res {
				if rr.Err != nil {
					t.Fatalf("workers=%d query %d: %v", workers, i, rr.Err)
				}
				if rr.Reachable != want[i] {
					t.Fatalf("workers=%d query %d (%d,%d,%v): batch=%v query=%v",
						workers, i, qs[i].S, qs[i].T, qs[i].L, rr.Reachable, want[i])
				}
			}
		}
	}
}

// TestQueryBatchMemoPastItsSlots: with more distinct constraints than the
// batch memo has slots — every sequence of length 1..3 over 6 labels, so
// codes share slots, some are not minimum repeats and many name a k-MR no
// path carries — every result is still Query's answer and error.
func TestQueryBatchMemoPastItsSlots(t *testing.T) {
	r := rand.New(rand.NewSource(804))
	g := randomGraph(r, 40, 6, 90)
	ix := mustBuild(t, g, Options{K: 3})
	var constraints []labelseq.Seq
	for n, count := 1, 6; n <= 3; n, count = n+1, count*6 {
		for c := 0; c < count; c++ {
			l := make(labelseq.Seq, n)
			for i, digits := 0, c; i < n; i, digits = i+1, digits/6 {
				l[i] = labelseq.Label(digits % 6)
			}
			constraints = append(constraints, l)
		}
	}
	slots := map[labelseq.Code]bool{}
	var shared, unprimitive, undictionaried int
	for _, l := range constraints {
		code := ix.dict.Coder().Encode(l)
		if slots[code%batchMemoSlots] {
			shared++
		}
		slots[code%batchMemoSlots] = true
		switch {
		case !labelseq.IsPrimitive(l):
			unprimitive++
		case ix.dict.LookupCode(code) == labelseq.InvalidID:
			undictionaried++
		}
	}
	if len(constraints) <= batchMemoSlots || shared == 0 || unprimitive == 0 || undictionaried == 0 {
		t.Fatalf("%d constraints, %d sharing a slot, %d not minimum repeats, %d not in the dictionary",
			len(constraints), shared, unprimitive, undictionaried)
	}

	qs := make([]BatchQuery, 5000)
	for i := range qs {
		qs[i] = BatchQuery{
			S: graph.Vertex(r.Intn(g.NumVertices())),
			T: graph.Vertex(r.Intn(g.NumVertices())),
			L: constraints[r.Intn(len(constraints))],
		}
	}
	for _, workers := range []int{1, 4} {
		for i, res := range ix.QueryBatch(qs, workers) {
			q := qs[i]
			want, err := ix.Query(q.S, q.T, q.L)
			if res.Reachable != want || fmt.Sprint(res.Err) != fmt.Sprint(err) {
				t.Fatalf("workers=%d query %d (%d,%d,%v): batch (%v, %v), Query (%v, %v)",
					workers, i, q.S, q.T, q.L, res.Reachable, res.Err, want, err)
			}
		}
	}
}

// TestQueryBatchErrors: invalid queries fail individually with the same
// sentinel errors Query uses, without failing their neighbors.
func TestQueryBatchErrors(t *testing.T) {
	g := graph.Fig2()
	ix := mustBuild(t, g, Options{K: 2})
	qs := []BatchQuery{
		{S: 0, T: 5, L: labelseq.Seq{1, 0}},    // valid
		{S: -1, T: 1, L: labelseq.Seq{0}},      // vertex out of range
		{S: 0, T: 1, L: labelseq.Seq{}},        // empty constraint
		{S: 0, T: 1, L: labelseq.Seq{0, 0}},    // not a minimum repeat
		{S: 0, T: 1, L: labelseq.Seq{9}},       // unknown label
		{S: 0, T: 1, L: labelseq.Seq{0, 1, 0}}, // longer than k
		{S: 2, T: 5, L: labelseq.Seq{1, 0}},    // valid (Example 4 Q1)
	}
	res := ix.QueryBatch(qs, 4)
	wantErr := []error{nil, ErrVertexRange, ErrEmptyConstraint, ErrNotMinimumRepeat, ErrUnknownLabel, ErrConstraintTooLong, nil}
	for i, w := range wantErr {
		if w == nil {
			if res[i].Err != nil {
				t.Errorf("query %d: unexpected error %v", i, res[i].Err)
			}
			continue
		}
		if !errors.Is(res[i].Err, w) {
			t.Errorf("query %d: err = %v, want %v", i, res[i].Err, w)
		}
	}
	if !res[6].Reachable {
		t.Error("valid query after invalid ones lost its answer")
	}
	if len(ix.QueryBatch(nil, 4)) != 0 {
		t.Error("empty batch must return an empty result slice")
	}

	// QueryBatchInto must fully overwrite a dirty reused buffer.
	dirty := make([]BatchResult, len(qs)+3)
	for i := range dirty {
		dirty[i] = BatchResult{Reachable: true, Err: ErrVertexRange}
	}
	into := ix.QueryBatchInto(qs, 2, dirty)
	if len(into) != len(qs) {
		t.Fatalf("QueryBatchInto returned %d results for %d queries", len(into), len(qs))
	}
	for i := range into {
		sameErr := (into[i].Err == nil) == (res[i].Err == nil) &&
			(wantErr[i] == nil || errors.Is(into[i].Err, wantErr[i]))
		if into[i].Reachable != res[i].Reachable || !sameErr {
			t.Errorf("QueryBatchInto[%d] = %+v, want %+v", i, into[i], res[i])
		}
	}
}

// TestQueryBatchAndQueryConcurrent hammers one frozen index from many
// goroutines mixing QueryBatch and plain Query — run with -race to make
// this meaningful (the documented contract is that the frozen index is
// safe for any concurrent read mix).
func TestQueryBatchAndQueryConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(801))
	g := randomGraph(r, 40, 3, 160)
	ix := mustBuild(t, g, Options{K: 2})
	qs := randomBatch(r, g, 2, 400)
	want := ix.QueryBatch(qs, 1)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				res := ix.QueryBatch(qs, 3)
				for i := range res {
					if res[i].Err != nil || res[i].Reachable != want[i].Reachable {
						t.Errorf("concurrent batch diverged at %d: %+v", i, res[i])
						return
					}
				}
			}
		}(int64(w))
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				q := qs[rr.Intn(len(qs))]
				if _, err := ix.Query(q.S, q.T, q.L); err != nil {
					t.Errorf("concurrent query failed: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCSRMatchesTraversalOnRandomGraphs is the CSR-vs-reference equivalence
// check: on random graphs, every query answered from the frozen flat layout
// (both singly and batched) must agree with the online-traversal reference.
func TestCSRMatchesTraversalOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(802))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + r.Intn(12)
		labels := 1 + r.Intn(3)
		g := randomGraph(r, n, labels, 2+r.Intn(4*n))
		k := 1 + r.Intn(3)
		ix := mustBuild(t, g, Options{K: k})

		var qs []BatchQuery
		for _, l := range PrimitiveConstraints(labels, k) {
			for s := graph.Vertex(0); int(s) < n; s++ {
				for tt := graph.Vertex(0); int(tt) < n; tt++ {
					qs = append(qs, BatchQuery{S: s, T: tt, L: l})
				}
			}
		}
		res := ix.QueryBatch(qs, 0)
		for i, q := range qs {
			if res[i].Err != nil {
				t.Fatalf("trial %d: %v", trial, res[i].Err)
			}
			single, err := ix.Query(q.S, q.T, q.L)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := traversal.EvalRLC(g, q.S, q.T, q.L)
			if err != nil {
				t.Fatal(err)
			}
			if single != ref || res[i].Reachable != ref {
				t.Fatalf("trial %d (%d,%d,%v): query=%v batch=%v traversal=%v\nedges: %v",
					trial, q.S, q.T, q.L, single, res[i].Reachable, ref, g.Edges())
			}
		}
	}
}

// BenchmarkQueryBatch compares sequential Query throughput with QueryBatch
// at GOMAXPROCS on one mid-size random graph.
func BenchmarkQueryBatch(b *testing.B) {
	r := rand.New(rand.NewSource(803))
	g := randomGraph(r, 2000, 4, 10000)
	ix, err := Build(g, Options{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	qs := randomBatch(r, g, 2, 4096)

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Query(q.S, q.T, q.L); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.QueryBatch(qs, 0)
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
