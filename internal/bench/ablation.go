package bench

import (
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// RunAblation quantifies the contribution of each pruning rule (Section V-B
// and the Remarks appendix) and of the access order: the index is built on
// the TW replica by core.BuildReference — Algorithm 2 as the paper states
// it — with each rule switched off in turn and under each order, measuring
// indexing time, entry count and query time. One last row builds with
// every rule through core.Build, the production builder, whose shortcuts
// change the time but not the index. Every configuration stays sound and
// complete — only cost changes — which the timed query runs re-verify
// against ground truth.
func RunAblation(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	d, err := datasets.ByName("TW")
	if err != nil {
		return nil, err
	}
	g, note, err := replica(cfg, d)
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
			"Every configuration answers all queries correctly; pruning only changes cost. PR1 = snapshot check, PR2 = rank order, PR3 = a pruned insert expands no further. Every row but the last builds with Algorithm 2 as stated (core.BuildReference); the last builds with core.Build, whose shortcuts write the all-rules index in less time.",
			note,
		},
	}
	all := core.Pruning{PR1: true, PR2: true, PR3: true}
	configs := []struct {
		name       string
		rules      core.Pruning
		production bool
	}{
		{"all rules (paper)", all, false},
		{"no PR1", core.Pruning{PR2: true, PR3: true}, false},
		{"no PR2", core.Pruning{PR1: true, PR3: true}, false},
		{"no PR3", core.Pruning{PR1: true, PR2: true}, false},
		{"no pruning", core.Pruning{}, false},
		{"order: degree sum", core.Pruning{PR1: true, PR2: true, PR3: true, Order: core.OrderDegreeSum}, false},
		{"order: natural", core.Pruning{PR1: true, PR2: true, PR3: true, Order: core.OrderNatural}, false},
		{"order: reverse", core.Pruning{PR1: true, PR2: true, PR3: true, Order: core.OrderReverse}, false},
		{"all rules, production builder", all, true},
	}
	for _, c := range configs {
		cfg.progressf("ablation: %s", c.name)
		opts := core.Options{K: 2}
		start := time.Now()
		var ix *core.Index
		if c.production {
			ix, err = core.Build(g, opts)
		} else {
			ix, err = core.BuildReference(g, opts, c.rules)
		}
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
