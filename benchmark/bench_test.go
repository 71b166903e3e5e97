package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesTables holds BENCHMARK.json to the tables the harness
// reports from: a metric added to one and not the other would make the
// driver refuse a run.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table")
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestGeneratorDeterministic: the same seed must give byte-identical request
// streams, a different seed different ones.
func TestGeneratorDeterministic(t *testing.T) {
	sz := smokeSizing()
	for _, w := range workloadNames {
		a, err := generate(sz, w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sz, w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sz, w, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 generated two different request streams", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 generated the same request stream", w)
		}
	}
}

// TestSmoke runs all four workloads against the real binaries, untraced and
// traced, at the smoke sizes, and checks the shape of what comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server binaries")
	}
	out := t.TempDir() + "/result.json"
	var buf bytes.Buffer
	begin := time.Now()
	if err := run(config{root: "..", workload: "all", seed: 1, seconds: 1, out: out, sz: smokeSizing()}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if d := time.Since(begin); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2*len(workloadNames) {
		t.Fatalf("%d runs in the report, want %d", len(rep.Runs), 2*len(workloadNames))
	}
	for _, r := range rep.Runs {
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: correct %v, %d/%d failed, %d metrics for %d definitions",
				r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || (!r.Trace && !(v.Value > 0)) {
				t.Errorf("%s trace=%v: %s = %+v", r.Workload, r.Trace, d.Name, v)
			}
		}
	}
	// The last line is the driver's object, with exactly its four keys.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
		t.Errorf("last line %q: %v", lines[len(lines)-1], err)
	}
	// A report compared with itself has nothing worse.
	if err := compareReports(&buf, out, out); err != nil {
		t.Error(err)
	}
}

// TestCompareVerdicts: a loss past the bound is "worse" and an error; a loss
// only the medians over the slices show is pointed out, not failed.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, best float64, slices []float64) string {
		res := newResult(wPointHot, false)
		res.set(endToEnd, "lat_p50_us", best)
		res.Slices = map[string][]float64{"lat_p50_us": slices}
		path := t.TempDir() + "/" + name
		if err := writeJSONFile(path, &report{Runs: []*result{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, []float64{10, 12, 12})
	stalls := write("b.json", 10.5, []float64{10.5, 20, 20})
	slower := write("c.json", 14, []float64{14, 15, 15})
	var buf bytes.Buffer
	if err := compareReports(&buf, a, stalls); err != nil || !strings.Contains(buf.String(), "median worse") {
		t.Errorf("stalled slices: error %v, output\n%s", err, buf.String())
	}
	buf.Reset()
	if err := compareReports(&buf, a, slower); err == nil || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a 40%% loss passed:\n%s", buf.String())
	}
}

// TestWrongAnswerFails flips one expected answer and wants the run to fail:
// the correctness gate must not be decorative.
func TestWrongAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server binaries")
	}
	cfg := config{root: "..", workload: wPointHot, seed: 1, seconds: 0.3, sz: smokeSizing()}
	cfg.corrupt = func(in *inputs) {
		q := &in.pool[in.stream[0]]
		q.want = !q.want
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err == nil {
		t.Fatalf("a flipped expectation went unnoticed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Errorf("the result line does not say correct:false:\n%s", buf.String())
	}
}
