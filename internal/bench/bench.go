package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config scales the experiments. The zero value is usable: withDefaults
// fills every field.
type Config struct {
	// Scale shrinks dataset replicas: a replica has about Scale*|V| of the
	// original's vertices (at least 600), same average degree.
	Scale float64
	// MaxVertices caps replica sizes so WF-class datasets stay tractable.
	MaxVertices int
	// MaxEdges caps replica edge counts; it binds on the densest datasets
	// (SO, WF) whose per-edge indexing cost is also the highest, which is
	// what makes default runs finish. Raise it to stress the build; a
	// negative value removes the cap.
	MaxEdges int
	// QueriesPerSet is the size of each true/false query set (paper: 1000).
	QueriesPerSet int
	// Seed drives all randomness.
	Seed int64
	// Datasets filters the Table III datasets (empty = all).
	Datasets []string
	// ETCTimeLimit and ETCMaxRecords bound ETC construction; exceeding
	// either renders "-" like Table IV.
	ETCTimeLimit  time.Duration
	ETCMaxRecords int64
	// TraversalTimeLimit bounds each BFS/BiBFS query-set run; exceeding it
	// renders "X" like Figure 3.
	TraversalTimeLimit time.Duration
	// SynthVertices is the base synthetic graph size for Figure 5
	// (paper: 1M).
	SynthVertices int
	// Fig6Vertices is the scalability sweep for Figure 6
	// (paper: 125K..2M).
	Fig6Vertices []int
	// Fig7Vertices is the synthetic size for Figure 7 (paper: 125K).
	Fig7Vertices int
	// Degrees and LabelSizes form the Figure 5 grid (paper: 2-5 x 8-36).
	Degrees    []int
	LabelSizes []int
	// KSweep is the recursive-k sweep of Figures 4 and 7 (paper: 2,3,4).
	KSweep []int
	// EngineQueries is the per-query-type sample size for Table V.
	EngineQueries int
	// Progress receives per-step progress lines (nil = silent).
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.004
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 20000
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 120000
	}
	if c.QueriesPerSet == 0 {
		c.QueriesPerSet = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ETCTimeLimit == 0 {
		c.ETCTimeLimit = 30 * time.Second
	}
	if c.ETCMaxRecords == 0 {
		c.ETCMaxRecords = 20_000_000
	}
	if c.TraversalTimeLimit == 0 {
		c.TraversalTimeLimit = 60 * time.Second
	}
	if c.SynthVertices == 0 {
		c.SynthVertices = 10000
	}
	if len(c.Fig6Vertices) == 0 {
		c.Fig6Vertices = []int{2500, 5000, 10000, 20000, 40000}
	}
	if c.Fig7Vertices == 0 {
		c.Fig7Vertices = 4000
	}
	if len(c.Degrees) == 0 {
		c.Degrees = []int{2, 3, 4, 5}
	}
	if len(c.LabelSizes) == 0 {
		c.LabelSizes = []int{8, 12, 16, 20, 24, 28, 32, 36}
	}
	if len(c.KSweep) == 0 {
		c.KSweep = []int{2, 3, 4}
	}
	if c.EngineQueries == 0 {
		c.EngineQueries = 50
	}
	if c.Progress == nil {
		c.Progress = io.Discard
	}
	return c
}

func (c Config) wantDataset(name string) bool {
	if len(c.Datasets) == 0 {
		return true
	}
	for _, d := range c.Datasets {
		if strings.EqualFold(d, name) {
			return true
		}
	}
	return false
}

func (c Config) progressf(format string, args ...any) {
	fmt.Fprintf(c.Progress, format+"\n", args...)
}

// Table is one rendered result table. The JSON tags are the machine-
// readable schema `rlcbench -json` emits.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// Render writes an aligned plain-text rendering.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	return nil
}

// Experiment couples an id (accepted by cmd/rlcbench -exp) with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table3", Title: "Overview of real-world graphs (replicas)", Run: RunTable3},
		{ID: "table4", Title: "Indexing time and index size: RLC index vs ETC", Run: RunTable4},
		{ID: "fig3", Title: "Query execution time on real-world graphs", Run: RunFig3},
		{ID: "fig4", Title: "RLC index with different recursive k (real graphs)", Run: RunFig4},
		{ID: "fig5", Title: "Impact of label-set size and average degree", Run: RunFig5},
		{ID: "fig6", Title: "Scalability in the number of vertices", Run: RunFig6},
		{ID: "fig7", Title: "Impact of recursive k (synthetic graphs)", Run: RunFig7},
		{ID: "table5", Title: "Speed-ups and break-even points over graph engines", Run: RunTable5},
		{ID: "ablation", Title: "Pruning-rule ablation (extension)", Run: RunAblation},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (want one of %s, or \"all\")", id, strings.Join(ids, ", "))
}
