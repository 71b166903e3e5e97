package bench

import (
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// RunFig4 reproduces Figure 4: indexing time, index size and query time of
// the RLC index on the TW and WG replicas as the recursive k grows through
// {2, 3, 4}. Query sets use a recursive concatenation of k labels, as in
// the paper.
func RunFig4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "fig4",
		Title: "RLC index with different recursive k values (TW, WG replicas)",
		Columns: []string{
			"Dataset", "k", "IT (s)", "IS (MB)", "Entries",
			"QT true (ms)", "QT false (ms)",
		},
		Notes: []string{fmt.Sprintf("Each query set holds %d queries with a recursive concatenation of k labels.", cfg.QueriesPerSet)},
	}
	for _, name := range []string{"TW", "WG"} {
		if !cfg.wantDataset(name) {
			continue
		}
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g, note, err := replica(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("fig4: %s: %w", name, err)
		}
		t.Notes = append(t.Notes, note)
		for _, k := range cfg.KSweep {
			cfg.progressf("fig4: %s k=%d", name, k)
			start := time.Now()
			ix, err := core.Build(g, core.Options{K: k})
			if err != nil {
				return nil, fmt.Errorf("fig4: %s k=%d: %w", name, k, err)
			}
			it := time.Since(start)

			w, err := buildWorkload(cfg, g, k)
			if err != nil {
				return nil, fmt.Errorf("fig4: %s k=%d: %w", name, k, err)
			}
			qtTrue, err := timeQuerySet(w.True, 0, func(q workload.Query) (bool, error) {
				return ix.Query(q.S, q.T, q.L)
			})
			if err != nil {
				return nil, fmt.Errorf("fig4: %s k=%d true: %w", name, k, err)
			}
			qtFalse, err := timeQuerySet(w.False, 0, func(q workload.Query) (bool, error) {
				return ix.Query(q.S, q.T, q.L)
			})
			if err != nil {
				return nil, fmt.Errorf("fig4: %s k=%d false: %w", name, k, err)
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%d", k),
				fmtSeconds(it), fmtMB(ix.SizeBytes()), fmtCount(ix.NumEntries()),
				fmt.Sprintf("%.3f", float64(qtTrue.Microseconds())/1000),
				fmt.Sprintf("%.3f", float64(qtFalse.Microseconds())/1000),
			})
		}
	}
	return []*Table{t}, nil
}
