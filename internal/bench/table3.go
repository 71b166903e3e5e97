package bench

import (
	"fmt"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// RunTable3 reproduces Table III: the overview of the (replica) datasets —
// |V|, |E|, |L|, loop count and triangle count — next to the originals'
// values so the preserved proportions are visible.
func RunTable3(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "table3",
		Title: "Overview of real-world graphs (synthetic replicas; originals in parentheses)",
		Columns: []string{
			"Dataset", "|V|", "|E|", "|L|", "Loops", "Triangles",
			"orig |V|", "orig |E|", "orig loops", "orig triangles",
		},
		Notes: []string{"Replicas keep the originals' average degree, |L|, loop density and triangle density (see internal/datasets)."},
	}
	for _, d := range datasets.All() {
		if !cfg.wantDataset(d.Name) {
			continue
		}
		cfg.progressf("table3: generating %s", d.Name)
		g, note, err := replica(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", d.Name, err)
		}
		t.Notes = append(t.Notes, note)
		st := graph.ComputeStats(g)
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmtCount(int64(st.Vertices)), fmtCount(int64(st.Edges)), fmt.Sprintf("%d", st.Labels),
			fmtCount(int64(st.Loops)), fmtCount(int64(st.Triangles)),
			fmtCount(int64(d.Vertices)), fmtCount(int64(d.Edges)),
			fmtCount(int64(d.Loops)), fmtCount(d.Tri),
		})
	}
	return []*Table{t}, nil
}
