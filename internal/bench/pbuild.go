package bench

import (
	"bytes"
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/gen"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// RunPBuild measures parallel index construction (extension): k = 2 builds
// of one generated ER and one generated BA graph across worker counts,
// reporting wall-clock build time and speedup over the sequential build.
// Every parallel build is checked to write a bundle byte-identical to the
// sequential one's — the determinism guarantee the scheduler makes (a
// speedup from a different index would be meaningless).
// Single-core machines see the scheduler's overhead instead of a speedup;
// the Identical column is the correctness signal either way.
func RunPBuild(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	workerSet := cfg.BuildWorkers
	if len(workerSet) == 0 {
		workerSet = []int{1, 2, 4}
	}
	tab := &Table{
		ID:      "pbuild",
		Title:   "Parallel index construction: build time vs workers (k = 2)",
		Columns: []string{"Graph", "|V|", "|E|", "Workers", "Build (ms)", "Speedup", "Identical"},
		Notes:   []string{"Best of 2 builds per cell; speedup is relative to the same graph's first row."},
	}

	n := cfg.SynthVertices
	type spec struct {
		name string
		make func() (*graph.Graph, error)
	}
	graphs := []spec{
		{"ER d=4 |L|=8", func() (*graph.Graph, error) { return gen.ER(n, 4*n, 8, cfg.Seed) }},
		{"BA m=3 |L|=8", func() (*graph.Graph, error) { return gen.BA(n, 3, 8, cfg.Seed) }},
	}

	for _, gs := range graphs {
		g, err := gs.make()
		if err != nil {
			return nil, fmt.Errorf("pbuild: %s: %w", gs.name, err)
		}

		// Reference build and bytes for the determinism gate.
		seqIx, err := core.Build(g, core.Options{K: 2, BuildWorkers: 1})
		if err != nil {
			return nil, fmt.Errorf("pbuild: %s: %w", gs.name, err)
		}
		var seqBytes bytes.Buffer
		if err := seqIx.WriteSnapshot(&seqBytes); err != nil {
			return nil, fmt.Errorf("pbuild: %s: %w", gs.name, err)
		}

		var base time.Duration
		for _, w := range workerSet {
			cfg.progressf("pbuild: %s workers=%d", gs.name, w)
			// Best of 2 timed builds; the last one doubles as the
			// subject of the byte-identity gate.
			var elapsed time.Duration
			var ix *core.Index
			for round := 0; round < 2; round++ {
				start := time.Now()
				built, err := core.Build(g, core.Options{K: 2, BuildWorkers: w})
				if err != nil {
					return nil, fmt.Errorf("pbuild: %s workers=%d: %w", gs.name, w, err)
				}
				if d := time.Since(start); round == 0 || d < elapsed {
					elapsed = d
				}
				ix = built
			}
			identical := true
			if w != 1 {
				var buf bytes.Buffer
				if err := ix.WriteSnapshot(&buf); err != nil {
					return nil, fmt.Errorf("pbuild: %s: %w", gs.name, err)
				}
				identical = bytes.Equal(buf.Bytes(), seqBytes.Bytes())
				if !identical {
					return nil, fmt.Errorf("pbuild: %s workers=%d: parallel build is NOT byte-identical to sequential — determinism bug", gs.name, w)
				}
			}
			if w == workerSet[0] {
				base = elapsed
			}
			tab.Rows = append(tab.Rows, []string{
				gs.name,
				fmt.Sprintf("%d", g.NumVertices()),
				fmt.Sprintf("%d", g.NumEdges()),
				fmt.Sprintf("%d", core.EffectiveBuildWorkers(g.NumVertices(), w)),
				fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
				fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)),
				fmt.Sprintf("%v", identical),
			})
		}
	}
	return []*Table{tab}, nil
}
