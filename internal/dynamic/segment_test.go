package dynamic

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestSealBoundaryDeterministic walks the readers' seal across the segment
// boundary explicitly: just under (31 edges stay in the unsealed tail),
// exactly at (32 seals the whole run), just over (a 1-edge tail stays
// unsealed), and a batch whose tail lands past the boundary (sealed in one
// piece). The seal amortizes the delta search and is no export boundary:
// every published batch exports at once, sealed or not.
func TestSealBoundaryDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomGraph(r, 32, 2, 40)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var plan []graph.Edge
	add := func(n int) {
		t.Helper()
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{
				Src:   graph.Vertex(r.Intn(32)),
				Dst:   graph.Vertex(r.Intn(32)),
				Label: graph.Label(r.Intn(2)),
			}
		}
		if err := d.AddEdges(edges); err != nil {
			t.Fatal(err)
		}
		plan = append(plan, edges...)
	}
	sealed := func() int { return d.cur.Load().sealed }

	// Just under the boundary: nothing seals, and the whole batch exports.
	add(segmentSize - 1)
	if got := sealed(); got != 0 {
		t.Fatalf("sealed after %d edges = %d, want 0", segmentSize-1, got)
	}
	if got := d.JournalTail(0); !slices.Equal(got, plan) {
		t.Fatalf("exported %d of %d unsealed edges", len(got), len(plan))
	}

	// Exactly at the boundary: the full run seals.
	add(1)
	if got := sealed(); got != segmentSize {
		t.Fatalf("sealed at boundary = %d, want %d", got, segmentSize)
	}
	if got := len(d.JournalTail(0)); got != segmentSize {
		t.Fatalf("exported %d edges, want %d", got, segmentSize)
	}

	// Just over: the 1-edge tail stays unsealed, and exports.
	add(1)
	if got := sealed(); got != segmentSize {
		t.Fatalf("sealed after tail edge = %d, want %d", got, segmentSize)
	}
	if got := d.JournalTail(segmentSize); !slices.Equal(got, plan[segmentSize:]) {
		t.Fatalf("exported %d edges past the seal, want the 1-edge tail", len(got))
	}
	if got := d.JournalTail(segmentSize + 1); got != nil {
		t.Fatalf("exported %d edges past the log end", len(got))
	}

	// A batch whose tail crosses the boundary seals in one piece.
	add(segmentSize + 2)
	if got, want := sealed(), 2*segmentSize+3; got != want {
		t.Fatalf("sealed after crossing batch = %d, want %d", got, want)
	}
	if got := d.JournalTail(0); !slices.Equal(got, plan) {
		t.Fatalf("exported journal differs from the %d inserted edges", len(plan))
	}
}

// TestSealBoundaryConcurrentExport appends batches sized to land exactly
// at, just under, and just over the segment seal boundary while a
// concurrent exporter drains the journal with JournalTail. The exporter
// asserts that (a) every export ends on a batch boundary — a published view
// holds whole batches only, so no export tears one — and (b) no edge is
// exported twice or out of order (content must replay the planned stream
// exactly). Run under -race this also proves the export path is safe
// against the writer, its seals and concurrent readers.
func TestSealBoundaryConcurrentExport(t *testing.T) {
	const rounds = 30
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 64, 2, 80)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Batch sizes exercise every boundary relation: exact multiples of the
	// segment size, one under, one over, and tiny trickles.
	sizes := []int{segmentSize, segmentSize - 1, 1, segmentSize + 1, 2, segmentSize, 1, segmentSize - 1}
	var (
		plan       []graph.Edge
		boundaries = map[int]bool{0: true}
	)
	total := 0
	for i := 0; i < rounds; i++ {
		n := sizes[i%len(sizes)]
		for j := 0; j < n; j++ {
			plan = append(plan, graph.Edge{
				Src:   graph.Vertex(r.Intn(64)),
				Dst:   graph.Vertex(r.Intn(64)),
				Label: graph.Label(r.Intn(2)),
			})
		}
		total += n
		boundaries[total] = true
	}

	var (
		wg         sync.WaitGroup
		writerDone atomic.Bool
		exported   []graph.Edge
	)
	wg.Add(2)
	// Exporter: drain the journal as batches are published.
	go func() {
		defer wg.Done()
		cursor := 0
		for {
			done := writerDone.Load()
			batch := d.JournalTail(cursor)
			if len(batch) == 0 {
				if done {
					return
				}
				time.Sleep(20 * time.Microsecond)
				continue
			}
			cursor += len(batch)
			if !boundaries[cursor] {
				t.Errorf("export ends at %d, not a batch boundary: torn export", cursor)
				return
			}
			exported = append(exported, batch...)
		}
	}()
	// Concurrent readers keep the lock-free query path busy during seals.
	stopReads := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				s := graph.Vertex(rr.Intn(64))
				u := graph.Vertex(rr.Intn(64))
				if _, err := d.Query(s, u, labelseq.Seq{0, 1}); err != nil {
					t.Errorf("query during seals: %v", err)
					return
				}
			}
		}(int64(100 + i))
	}
	// Writer: append the planned batches with a tiny cadence so seals
	// interleave with exports.
	go func() {
		defer wg.Done()
		off := 0
		for i := 0; i < rounds; i++ {
			n := sizes[i%len(sizes)]
			if err := d.AddEdges(plan[off : off+n]); err != nil {
				t.Errorf("append batch %d: %v", i, err)
				return
			}
			off += n
			time.Sleep(50 * time.Microsecond)
		}
		writerDone.Store(true)
	}()
	wg.Wait()
	close(stopReads)
	rwg.Wait()

	if len(exported) != total {
		t.Fatalf("exported %d edges, want %d", len(exported), total)
	}
	for i := range exported {
		if exported[i] != plan[i] {
			t.Fatalf("exported edge %d = %+v, want %+v (duplicate, gap, or reorder)", i, exported[i], plan[i])
		}
	}
}
