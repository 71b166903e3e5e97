package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/etc"
	"github.com/g-rpqs/rlc-go/internal/traversal"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// RunFig3 reproduces Figure 3: total execution time of the true-query set
// and the false-query set (concatenation length 2, k = 2) for BFS, BiBFS,
// ETC and the RLC index on every dataset replica. Timed-out traversal cells
// print "X", matching the figure.
func RunFig3(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mk := func(kind string) *Table {
		return &Table{
			ID:      "fig3-" + kind,
			Title:   fmt.Sprintf("Execution time of %d %s-queries (µs total)", cfg.QueriesPerSet, kind),
			Columns: []string{"Dataset", "BFS", "BiBFS", "ETC", "RLC Index"},
			Notes:   []string{fmt.Sprintf("\"X\" = exceeded the %v per-set traversal budget; \"-\" = ETC not buildable within budget (cf. Table IV).", cfg.TraversalTimeLimit)},
		}
	}
	trueTab, falseTab := mk("true"), mk("false")

	for _, d := range datasets.All() {
		if !cfg.wantDataset(d.Name) {
			continue
		}
		cfg.progressf("fig3: %s", d.Name)
		g, note, err := replica(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("fig3: %s: %w", d.Name, err)
		}
		trueTab.Notes = append(trueTab.Notes, note)
		falseTab.Notes = append(falseTab.Notes, note)
		w, err := buildWorkload(cfg, g, 2)
		if err != nil {
			return nil, fmt.Errorf("fig3: %s: %w", d.Name, err)
		}

		ix, err := core.Build(g, core.Options{K: 2})
		if err != nil {
			return nil, fmt.Errorf("fig3: %s: %w", d.Name, err)
		}
		closure, etcErr := etc.Build(g, etc.Options{K: 2, TimeLimit: cfg.ETCTimeLimit, MaxPairEntries: cfg.ETCMaxRecords})
		if etcErr != nil && !errors.Is(etcErr, etc.ErrBudget) {
			return nil, fmt.Errorf("fig3: %s: etc: %w", d.Name, etcErr)
		}

		ev := traversal.NewEvaluator(g)
		nfaCache := map[string]*automaton.NFA{}
		nfaOf := func(q workload.Query) (*automaton.NFA, error) {
			key := q.L.String()
			if nfa, ok := nfaCache[key]; ok {
				return nfa, nil
			}
			nfa, err := automaton.NewPlus(q.L, g.NumLabels())
			if err != nil {
				return nil, err
			}
			nfaCache[key] = nfa
			return nfa, nil
		}

		for _, set := range []struct {
			tab     *Table
			queries []workload.Query
		}{{trueTab, w.True}, {falseTab, w.False}} {
			row := []string{d.Name}
			// BFS.
			dur, err := timeQuerySet(set.queries, cfg.TraversalTimeLimit, func(q workload.Query) (bool, error) {
				nfa, err := nfaOf(q)
				if err != nil {
					return false, err
				}
				return ev.BFS(q.S, q.T, nfa), nil
			})
			row = append(row, cellOrTimeout(dur, err))
			if err != nil && !errors.Is(err, errTimeLimit) {
				return nil, fmt.Errorf("fig3: %s bfs: %w", d.Name, err)
			}
			// BiBFS.
			dur, err = timeQuerySet(set.queries, cfg.TraversalTimeLimit, func(q workload.Query) (bool, error) {
				nfa, err := nfaOf(q)
				if err != nil {
					return false, err
				}
				return ev.BiBFS(q.S, q.T, nfa), nil
			})
			row = append(row, cellOrTimeout(dur, err))
			if err != nil && !errors.Is(err, errTimeLimit) {
				return nil, fmt.Errorf("fig3: %s bibfs: %w", d.Name, err)
			}
			// ETC (when buildable).
			if etcErr != nil {
				row = append(row, "-")
			} else {
				dur, err = timeQuerySet(set.queries, 0, func(q workload.Query) (bool, error) {
					return closure.Query(q.S, q.T, q.L)
				})
				if err != nil {
					return nil, fmt.Errorf("fig3: %s etc: %w", d.Name, err)
				}
				row = append(row, fmtMicros(dur))
			}
			// RLC index.
			dur, err = timeQuerySet(set.queries, 0, func(q workload.Query) (bool, error) {
				return ix.Query(q.S, q.T, q.L)
			})
			if err != nil {
				return nil, fmt.Errorf("fig3: %s rlc: %w", d.Name, err)
			}
			row = append(row, fmtMicros(dur))

			set.tab.Rows = append(set.tab.Rows, row)
		}
	}
	return []*Table{trueTab, falseTab}, nil
}

func cellOrTimeout(d time.Duration, err error) string {
	if errors.Is(err, errTimeLimit) {
		return "X"
	}
	return fmtMicros(d)
}
