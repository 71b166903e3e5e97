package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/etc"
)

// RunTable4 reproduces Table IV: indexing time (IT) and index size (IS) of
// the RLC index against the extended transitive closure, with k = 2. ETC
// exceeding its construction budget renders "-", exactly as the paper's
// 24-hour timeouts do.
func RunTable4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "table4",
		Title: "Indexing time (IT) and index size (IS), k = 2",
		Columns: []string{
			"Dataset", "RLC IT (s)", "RLC IS (MB)", "RLC entries",
			"ETC IT (s)", "ETC IS (MB)", "ETC records",
			"paper RLC IT (s)", "paper RLC IS (MB)",
		},
		Notes: []string{fmt.Sprintf("ETC budget: %v or %s records — exceeded cells print \"-\" (the paper's ETC only completes on AD within 24h).", cfg.ETCTimeLimit, fmtCount(cfg.ETCMaxRecords))},
	}
	for _, d := range datasets.All() {
		if !cfg.wantDataset(d.Name) {
			continue
		}
		cfg.progressf("table4: %s", d.Name)
		g, note, err := replica(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("table4: %s: %w", d.Name, err)
		}
		t.Notes = append(t.Notes, note)

		start := time.Now()
		ix, err := core.Build(g, core.Options{K: 2})
		if err != nil {
			return nil, fmt.Errorf("table4: %s: %w", d.Name, err)
		}
		rlcIT := time.Since(start)

		etcIT, etcIS, etcRecords := "-", "-", "-"
		start = time.Now()
		closure, err := etc.Build(g, etc.Options{K: 2, TimeLimit: cfg.ETCTimeLimit, MaxPairEntries: cfg.ETCMaxRecords})
		switch {
		case err == nil:
			etcIT = fmtSeconds(time.Since(start))
			etcIS = fmtMB(closure.SizeBytes())
			etcRecords = fmtCount(closure.NumRecords())
		case errors.Is(err, etc.ErrBudget):
			// "-" row, like the paper.
		default:
			return nil, fmt.Errorf("table4: %s: etc: %w", d.Name, err)
		}

		t.Rows = append(t.Rows, []string{
			d.Name,
			fmtSeconds(rlcIT), fmtMB(ix.SizeBytes()), fmtCount(ix.NumEntries()),
			etcIT, etcIS, etcRecords,
			fmt.Sprintf("%.1f", d.PaperIndexSeconds), fmt.Sprintf("%.1f", d.PaperIndexMB),
		})
	}
	return []*Table{t}, nil
}
