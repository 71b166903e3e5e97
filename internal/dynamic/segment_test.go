package dynamic

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestSealBoundaryDeterministic walks the seal watermark across the
// segment boundary explicitly: just under (31 edges stay unsealed),
// exactly at (32 seals the whole run), just over (a 1-edge tail stays
// unsealed until a forced Seal), and a batch whose tail lands past the
// boundary (sealed in one piece).
func TestSealBoundaryDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomGraph(r, 32, 2, 40)
	d, err := Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n int) []graph.Edge {
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{
				Src:   graph.Vertex(r.Intn(32)),
				Dst:   graph.Vertex(r.Intn(32)),
				Label: graph.Label(r.Intn(2)),
			}
		}
		return edges
	}

	// Just under the boundary: nothing seals, nothing exports.
	if err := d.AddEdges(mk(segmentSize - 1)); err != nil {
		t.Fatal(err)
	}
	if got := d.SealedLen(); got != 0 {
		t.Fatalf("sealed after %d edges = %d, want 0", segmentSize-1, got)
	}
	if got := d.ExportSealed(0); got != nil {
		t.Fatalf("exported %d unsealed edges", len(got))
	}

	// Exactly at the boundary: the full run seals and exports once.
	if err := d.AddEdges(mk(1)); err != nil {
		t.Fatal(err)
	}
	if got := d.SealedLen(); got != segmentSize {
		t.Fatalf("sealed at boundary = %d, want %d", got, segmentSize)
	}
	if got := len(d.ExportSealed(0)); got != segmentSize {
		t.Fatalf("exported %d edges, want %d", got, segmentSize)
	}

	// Just over: the 1-edge tail stays unsealed...
	if err := d.AddEdges(mk(1)); err != nil {
		t.Fatal(err)
	}
	if got := d.SealedLen(); got != segmentSize {
		t.Fatalf("sealed after tail edge = %d, want %d", got, segmentSize)
	}
	if got := d.ExportSealed(segmentSize); got != nil {
		t.Fatalf("exported %d edges past the watermark", len(got))
	}
	// ...until a forced Seal flushes it.
	d.Seal()
	if got := d.SealedLen(); got != segmentSize+1 {
		t.Fatalf("sealed after Seal = %d, want %d", got, segmentSize+1)
	}
	if got := len(d.ExportSealed(segmentSize)); got != 1 {
		t.Fatalf("exported %d flushed edges, want 1", got)
	}
	d.Seal() // idempotent on an empty tail
	if got := d.SealedLen(); got != segmentSize+1 {
		t.Fatalf("sealed after no-op Seal = %d, want %d", got, segmentSize+1)
	}

	// A batch whose tail crosses the boundary seals in one piece.
	if err := d.AddEdges(mk(segmentSize + 2)); err != nil {
		t.Fatal(err)
	}
	if got, want := d.SealedLen(), 2*segmentSize+3; got != want {
		t.Fatalf("sealed after crossing batch = %d, want %d", got, want)
	}
}

// TestSealBoundaryConcurrentExport is the satellite race test: a writer
// appends batches sized to land exactly at, just under, and just over the
// segment seal boundary while a concurrent exporter drains sealed
// segments. The exporter asserts that (a) no edge is ever exported before
// its batch sealed — every export cursor lands on a batch-boundary prefix
// sum, because seals only happen at publish points — (b) no edge is
// exported twice or out of order (content must replay the planned stream
// exactly), and (c) after a final flush the exporter has everything.
// Run under -race this also proves the export path is safe against the
// writer and concurrent readers.
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
	// Exporter: drain sealed segments as they appear.
	go func() {
		defer wg.Done()
		cursor := 0
		for {
			batch := d.ExportSealed(cursor)
			if len(batch) == 0 {
				if writerDone.Load() {
					// One final pass after the writer's last flush.
					if tail := d.ExportSealed(cursor); len(tail) > 0 {
						if !boundaries[cursor] {
							t.Errorf("export cursor %d is not a batch boundary", cursor)
						}
						exported = append(exported, tail...)
					}
					return
				}
				time.Sleep(20 * time.Microsecond)
				continue
			}
			if !boundaries[cursor] {
				t.Errorf("export cursor %d is not a batch boundary: unsealed or torn export", cursor)
				return
			}
			exported = append(exported, batch...)
			cursor += len(batch)
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
		d.Seal() // flush the final partial tail for the exporter
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
	if got := d.SealedLen(); got != total {
		t.Fatalf("final sealed watermark = %d, want %d", got, total)
	}
}
