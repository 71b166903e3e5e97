package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/datasets"
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
	// Paper order: Tables III and IV, Figures 3-7, Table V, then the one
	// extension.
	want := []string{"table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "table5", "ablation"}
	exps := Experiments()
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("Experiments() ids = %v, want %v", ids, want)
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
	// each left with what it measured. "batch", "ingest", "budget" and
	// "repl" measured the serving stack, which benchmark/ measures over
	// real sockets.
	for _, id := range []string{"nope", "serve", "pbuild", "batch", "ingest", "budget", "repl"} {
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
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"commit", "dirty"} {
		if v, _ := keys[k].(string); v == "" {
			t.Errorf("report key %q = %v, want a non-empty string", k, keys[k])
		}
	}
	if len(back.Experiments[0].Tables) != 1 || back.Experiments[0].Tables[0].Rows[0][0] != "1" {
		t.Fatalf("table lost in round trip: %+v", back.Experiments[0].Tables)
	}
}

// TestReplicaNoteNamesBindingCap: each replica's note gives its |V| and |E|
// and names the one setting that bound |V|; a negative MaxEdges is no cap.
func TestReplicaNoteNamesBindingCap(t *testing.T) {
	d, err := datasets.ByName("AD") // 6,000 vertices, average degree 8.5
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		scale      float64
		maxV, maxE int
		vertices   int
		bound      string
	}{
		{0.25, 20000, -1, 1500, "bound by -scale 0.25."},
		{0.5, 2000, -1, 2000, "bound by -max-vertices 2000."},
		{0.5, 20000, 12750, 1500, "bound by -max-edges 12750."},
		{0.5, 20000, 1000, 600, "bound by the 600-vertex floor."},
	}
	for _, tc := range cases {
		g, note, err := replica(Config{Scale: tc.scale, MaxVertices: tc.maxV, MaxEdges: tc.maxE, Seed: 1}, d)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("AD replica: %d vertices, %d edges; ", tc.vertices, g.NumEdges())
		if g.NumVertices() != tc.vertices || !strings.HasPrefix(note, want) || !strings.HasSuffix(note, tc.bound) {
			t.Errorf("%+v: %d vertices, note %q; want %d vertices, %q…%q", tc, g.NumVertices(), note, tc.vertices, want, tc.bound)
		}
	}
}
