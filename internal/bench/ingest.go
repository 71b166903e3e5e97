package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/server"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// ingestHoldout is the fraction of each replica's edges withheld from the
// base index and streamed back as live inserts.
const ingestHoldout = 10 // one edge in ten

// ingestRequestFactor sizes the read stream as a multiple of the distinct
// query pool (every read here shares the machine with inserts and background
// rebuilds).
const ingestRequestFactor = 10

// ingestZipfS is the skew of the read stream. Real query logs are heavily
// repetitive; s = 1.1 concentrates most of the traffic on a small head of
// hot queries.
const ingestZipfS = 1.1

// RunIngest measures the mutable serving layer — the read/write epoch
// pipeline. Each dataset replica is split into a base graph (indexed and
// served) and a withheld edge stream; the fig3-style workload is generated
// against the FULL graph, so its ground truth is what the server must
// converge to. The mixed run interleaves Zipf-skewed reads with single-edge
// POST-/update-equivalent inserts; the rebuild threshold is sized so the
// run crosses several background fold-and-rebuild epochs. Exactness is
// gated twice: once when the stream has fully landed (journal still live,
// answers come from base + delta), and once more after a final explicit
// fold (answers come from the rebuilt base alone) — both passes must equal
// the ground truth for every pool query or the experiment fails.
func RunIngest(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		ID:    "ingest",
		Title: "Live ingestion: mixed read/write serving with background fold-and-rebuild epochs",
		Columns: []string{"Dataset", "Base edges", "Inserts", "Reads", "R/W",
			"Mixed ops/s", "Epochs", "Fold ms"},
		Notes: []string{fmt.Sprintf(
			"Zipf s = %.1f reads over the fig3 true+false pool (%dx replay) interleaved with 1-in-%d withheld edges as inserts; single client goroutine at the serving layer (no HTTP).",
			ingestZipfS, ingestRequestFactor, ingestHoldout),
			"Epochs counts completed fold-and-rebuilds (background plus the final explicit one); Fold ms is the last fold's wall time. Answers are verified exact against the full-graph ground truth both before and after the final fold.",
			"Single-core numbers: background folds share the CPU with serving here; on multi-core hardware folding is off-thread and steals no serving time."},
	}

	for _, d := range datasets.All() {
		if !cfg.wantDataset(d.Name) {
			continue
		}
		cfg.progressf("ingest: %s", d.Name)
		g, err := replica(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("ingest: %s: %w", d.Name, err)
		}
		w, err := buildWorkload(cfg, g, 2)
		if err != nil {
			return nil, fmt.Errorf("ingest: %s: %w", d.Name, err)
		}

		// Withhold a shuffled tenth of the edges as the insert stream.
		edges := g.Edges()
		r := rand.New(rand.NewSource(cfg.Seed*104729 + 7))
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		split := len(edges) - len(edges)/ingestHoldout
		baseB := graph.NewBuilder(g.NumVertices(), g.NumLabels())
		baseB.SetVertexNames(g.VertexNames())
		baseB.SetLabelNames(g.LabelNames())
		for _, e := range edges[:split] {
			baseB.AddEdge(e.Src, e.Label, e.Dst)
		}
		base := baseB.Build()
		stream := edges[split:]

		ix, err := core.Build(base, core.Options{K: 2})
		if err != nil {
			return nil, fmt.Errorf("ingest: %s: %w", d.Name, err)
		}
		thr := len(stream)/3 + 1 // ~3 threshold crossings per run
		srv := server.New(ix, server.Options{Mutable: true, RebuildThreshold: thr})

		pool := w.All()
		requests := zipfStream(cfg.Seed, len(pool), ingestRequestFactor*len(pool))
		readsPerWrite := len(requests) / len(stream)
		if readsPerWrite < 1 {
			readsPerWrite = 1
		}

		ctx := context.Background()
		start := time.Now()
		next := 0
		for i, req := range requests {
			q := pool[req]
			if _, _, err := srv.AnswerRLC(ctx, q.S, q.T, q.L); err != nil {
				return nil, fmt.Errorf("ingest: %s: read: %w", d.Name, err)
			}
			if i%readsPerWrite == 0 && next < len(stream) {
				e := stream[next]
				if _, err := srv.UpdateBatch([]graph.Edge{e}); err != nil {
					return nil, fmt.Errorf("ingest: %s: insert %d: %w", d.Name, next, err)
				}
				next++
			}
		}
		for ; next < len(stream); next++ {
			e := stream[next]
			if _, err := srv.UpdateBatch([]graph.Edge{e}); err != nil {
				return nil, fmt.Errorf("ingest: %s: insert %d: %w", d.Name, next, err)
			}
		}
		elapsed := time.Since(start)

		// Gate 1: the full stream has landed; delta answers must equal the
		// full-graph ground truth even though the journal is still live.
		if err := verifyPool(ctx, srv, pool, d.Name, "pre-fold"); err != nil {
			return nil, err
		}
		// Gate 2: fold to completion and verify against the rebuilt base.
		if _, err := srv.Rebuild(); err != nil {
			return nil, fmt.Errorf("ingest: %s: final fold: %w", d.Name, err)
		}
		if err := verifyPool(ctx, srv, pool, d.Name, "post-fold"); err != nil {
			return nil, err
		}
		ms := srv.MutableStats()

		ops := float64(len(requests)+len(stream)) / elapsed.Seconds()
		tab.Rows = append(tab.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", base.NumEdges()),
			fmt.Sprintf("%d", len(stream)),
			fmt.Sprintf("%d", len(requests)),
			fmt.Sprintf("%d:1", readsPerWrite),
			fmtCount(int64(ops)),
			fmt.Sprintf("%d", ms.Epoch),
			fmt.Sprintf("%.1f", ms.LastRebuildMicros/1e3),
		})
	}
	return []*Table{tab}, nil
}

func verifyPool(ctx context.Context, srv *server.Server, pool []workload.Query, dataset, stage string) error {
	for _, q := range pool {
		got, _, err := srv.AnswerRLC(ctx, q.S, q.T, q.L)
		if err != nil {
			return fmt.Errorf("ingest: %s: %s verify: %w", dataset, stage, err)
		}
		if got != q.Expected {
			return fmt.Errorf("ingest: %s: %s verify: served %v for (%d, %d, %v+), ground truth %v",
				dataset, stage, got, q.S, q.T, q.L, q.Expected)
		}
	}
	return nil
}

// zipfStream draws n indexes over [0, pool) from a Zipf(s) distribution,
// shuffled by the generator's own order (rand.Zipf is already i.i.d.).
func zipfStream(seed int64, pool, n int) []int {
	r := rand.New(rand.NewSource(seed*7919 + 17))
	z := rand.NewZipf(r, ingestZipfS, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
