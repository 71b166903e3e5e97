package bench

import (
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// RunAblation quantifies the contribution of each pruning rule (Section V-B
// and the Remarks appendix): the index is built on the TW replica with each
// rule disabled in turn, measuring indexing time, entry count and query
// time. Every configuration stays sound and complete — only cost changes —
// which the timed query runs re-verify against ground truth.
func RunAblation(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	d, err := datasets.ByName("TW")
	if err != nil {
		return nil, err
	}
	g, err := replica(cfg, d)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	w, err := buildWorkload(cfg, g, 2)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}

	t := &Table{
		ID:      "ablation",
		Title:   "Pruning-rule ablation on the TW replica (k = 2)",
		Columns: []string{"Configuration", "IT (s)", "Entries", "IS (MB)", "QT true (ms)", "QT false (ms)"},
		Notes: []string{
			"Every configuration answers all queries correctly; pruning only changes cost. PR1 = snapshot check, PR2 = rank order (with PR1 and PR3 on, the kernel search skips the depth-k states it would reject), PR3 = a pruned insert expands no further (and, with PR1 on, seeds no kernel BFS).",
		},
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"all rules (paper)", core.Options{K: 2}},
		{"no PR1", core.Options{K: 2, DisablePR1: true}},
		{"no PR2", core.Options{K: 2, DisablePR2: true}},
		{"no PR3", core.Options{K: 2, DisablePR3: true}},
		{"no pruning", core.Options{K: 2, DisablePR1: true, DisablePR2: true, DisablePR3: true}},
		{"order: degree sum", core.Options{K: 2, Order: core.OrderDegreeSum}},
		{"order: natural", core.Options{K: 2, Order: core.OrderNatural}},
		{"order: reverse", core.Options{K: 2, Order: core.OrderReverse}},
	}
	for _, c := range configs {
		cfg.progressf("ablation: %s", c.name)
		start := time.Now()
		ix, err := core.Build(g, c.opts)
		if err != nil {
			return nil, fmt.Errorf("ablation: %s: %w", c.name, err)
		}
		it := time.Since(start)
		qtTrue, err := timeQuerySet(w.True, 0, func(q workload.Query) (bool, error) {
			return ix.Query(q.S, q.T, q.L)
		})
		if err != nil {
			return nil, fmt.Errorf("ablation: %s: %w", c.name, err)
		}
		qtFalse, err := timeQuerySet(w.False, 0, func(q workload.Query) (bool, error) {
			return ix.Query(q.S, q.T, q.L)
		})
		if err != nil {
			return nil, fmt.Errorf("ablation: %s: %w", c.name, err)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmtSeconds(it), fmtCount(ix.NumEntries()), fmtMB(ix.SizeBytes()),
			fmt.Sprintf("%.3f", float64(qtTrue.Microseconds())/1000),
			fmt.Sprintf("%.3f", float64(qtFalse.Microseconds())/1000),
		})
	}
	return []*Table{t}, nil
}
