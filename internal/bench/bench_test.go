package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// microConfig shrinks every experiment to seconds for the test suite.
func microConfig() Config {
	return Config{
		Scale:              0.0001,
		MaxVertices:        700,
		QueriesPerSet:      8,
		Seed:               1,
		Datasets:           []string{"AD", "TW"},
		ETCTimeLimit:       5 * time.Second,
		ETCMaxRecords:      2_000_000,
		MaxEdges:           50_000,
		TraversalTimeLimit: 20 * time.Second,
		SynthVertices:      400,
		Fig6Vertices:       []int{300, 600},
		Fig7Vertices:       300,
		Degrees:            []int{2, 3},
		LabelSizes:         []int{8, 16},
		KSweep:             []int{2, 3},
		EngineQueries:      6,
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("expected 13 experiments, got %d", len(exps))
	}
	for _, e := range exps {
		got, err := ByID(e.ID)
		if err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
		if got.ID != e.ID {
			t.Errorf("ByID(%s) returned %s", e.ID, got.ID)
		}
	}
	// "serve" measured the result cache and "pbuild" the parallel build;
	// each left with what it measured.
	for _, id := range []string{"nope", "serve", "pbuild"} {
		if _, err := ByID(id); err == nil {
			t.Errorf("ByID(%s) must fail", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	md := tab.Markdown()
	for _, want := range []string{"## x — demo", "| a | bb |", "| 333 | 4 |", "note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "333  4") {
		t.Errorf("plain rendering misaligned:\n%s", sb.String())
	}
}

func checkTables(t *testing.T, tables []*Table, err error, wantRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables produced")
	}
	for _, tab := range tables {
		if len(tab.Rows) < wantRows {
			t.Errorf("table %s has %d rows, want at least %d", tab.ID, len(tab.Rows), wantRows)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("table %s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
			}
		}
	}
}

func TestRunTable3Micro(t *testing.T) {
	tables, err := RunTable3(microConfig())
	checkTables(t, tables, err, 2)
}

func TestRunTable4Micro(t *testing.T) {
	tables, err := RunTable4(microConfig())
	checkTables(t, tables, err, 2)
}

func TestRunFig3Micro(t *testing.T) {
	tables, err := RunFig3(microConfig())
	checkTables(t, tables, err, 2)
	if len(tables) != 2 {
		t.Fatalf("fig3 should produce true+false tables, got %d", len(tables))
	}
}

func TestRunFig4Micro(t *testing.T) {
	tables, err := RunFig4(microConfig())
	checkTables(t, tables, err, 2) // TW only (dataset filter), 2 k values
}

func TestRunFig5Micro(t *testing.T) {
	tables, err := RunFig5(microConfig())
	checkTables(t, tables, err, 4) // 2 degrees x 2 label sizes
	if len(tables) != 2 {
		t.Fatalf("fig5 should produce ER+BA tables, got %d", len(tables))
	}
}

func TestRunFig6Micro(t *testing.T) {
	tables, err := RunFig6(microConfig())
	checkTables(t, tables, err, 2)
}

func TestRunFig7Micro(t *testing.T) {
	tables, err := RunFig7(microConfig())
	checkTables(t, tables, err, 4) // 2 models x 2 k values
}

func TestRunTable5Micro(t *testing.T) {
	tables, err := RunTable5(microConfig())
	checkTables(t, tables, err, 12) // 4 query types x 3 engines
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale == 0 || c.QueriesPerSet == 0 || len(c.Degrees) == 0 || len(c.KSweep) == 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	if !c.wantDataset("AD") {
		t.Error("empty filter should admit all datasets")
	}
	c.Datasets = []string{"ad"}
	if !c.wantDataset("AD") || c.wantDataset("TW") {
		t.Error("dataset filter should be case-insensitive and exclusive")
	}
}

func TestRunAblationMicro(t *testing.T) {
	tables, err := RunAblation(microConfig())
	checkTables(t, tables, err, 5)
}

func TestRunBatchMicro(t *testing.T) {
	tables, err := RunBatch(microConfig())
	checkTables(t, tables, err, 2) // AD and TW rows
	if len(tables) != 1 {
		t.Fatalf("batch should produce one table, got %d", len(tables))
	}
}

func TestRunIngestMicro(t *testing.T) {
	tables, err := RunIngest(microConfig())
	checkTables(t, tables, err, 2) // AD and TW rows
	if len(tables) != 1 {
		t.Fatalf("ingest should produce one table, got %d", len(tables))
	}
	// The exactness gates inside RunIngest are the real assertions; here we
	// pin that the run folded at least once (at micro scale a single
	// background fold can swallow the whole stream before the explicit
	// final fold gets a turn).
	for _, row := range tables[0].Rows {
		var epochs int
		if _, err := fmt.Sscanf(row[6], "%d", &epochs); err != nil || epochs < 1 {
			t.Errorf("ingest row %v: expected >= 1 fold epoch, got %q", row, row[6])
		}
	}
}

func TestRunBudgetMicro(t *testing.T) {
	tables, err := RunBudget(microConfig())
	checkTables(t, tables, err, 2*len(budgetFractions)) // AD and TW sweeps
	if len(tables) != 1 {
		t.Fatalf("budget should produce one table, got %d", len(tables))
	}
	// RunBudget's internal gates (ground-truth answers, monotone bytes) are
	// the real assertions; pin here that the sweep demoted vertices on some
	// dataset rather than no-opping throughout (overhead-dominated replicas
	// like TW legitimately never tier — the builder refuses to grow them).
	demoted := false
	for _, row := range tables[0].Rows {
		if row[5] != "0" {
			demoted = true
		}
	}
	if !demoted {
		t.Errorf("no budget row demoted any vertices: %v", tables[0].Rows)
	}
}

func TestRunReplMicro(t *testing.T) {
	tables, err := RunRepl(microConfig())
	checkTables(t, tables, err, 2) // AD and TW rows
	if len(tables) != 1 {
		t.Fatalf("repl should produce one table, got %d", len(tables))
	}
	// The exactness gate inside RunRepl is the real assertion; here we pin
	// that replication actually streamed segments rather than riding the
	// cutover for everything.
	for _, row := range tables[0].Rows {
		var segments int
		if _, err := fmt.Sscanf(row[3], "%d", &segments); err != nil || segments < 1 {
			t.Errorf("repl row %v: expected >= 1 replicated segment, got %q", row, row[3])
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := NewReport()
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	r.Add(Experiment{ID: "x", Title: "demo"}, []*Table{tab}, 2*time.Second)
	path := t.TempDir() + "/r.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].ID != "x" ||
		back.Experiments[0].Seconds != 2 || back.GOMAXPROCS < 1 {
		t.Fatalf("round-tripped report: %+v", back)
	}
	if len(back.Experiments[0].Tables) != 1 || back.Experiments[0].Tables[0].Rows[0][0] != "1" {
		t.Fatalf("table lost in round trip: %+v", back.Experiments[0].Tables)
	}
}
