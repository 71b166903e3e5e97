package rlc_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIBuild covers cmd/rlcbuild end to end: generate a graph, build its
// bundle twice, verify the two bundles are byte-identical (the determinism
// guarantee at the CLI surface), then round-trip through rlcquery and
// rlcinspect.
func TestCLIBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build test skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"rlcgen", "rlcbuild", "rlcquery", "rlcinspect"} {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[tool], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	graphFile := filepath.Join(dir, "g.graph")
	queryFile := filepath.Join(dir, "g.queries")
	firstIndex := filepath.Join(dir, "first.rlcs")
	secondIndex := filepath.Join(dir, "second.rlcs")

	run("rlcgen", "-model", "ba", "-n", "400", "-d", "3", "-labels", "4",
		"-seed", "9", "-out", graphFile, "-workload", queryFile, "-queries", "25", "-len", "2")

	out := run("rlcbuild", "-graph", graphFile, "-k", "2", "-o", firstIndex)
	if !strings.Contains(out, "indexing time:") || !strings.Contains(out, "construction:") {
		t.Errorf("rlcbuild output unexpected: %s", out)
	}
	run("rlcbuild", "-graph", graphFile, "-k", "2", "-o", secondIndex)
	first, err := os.ReadFile(firstIndex)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(secondIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two rlcbuild runs over the same graph wrote different bundles (%d vs %d bytes)",
			len(first), len(second))
	}

	// Round-trip: the bundle answers the generated workload with full
	// ground-truth agreement and inspects cleanly.
	out = run("rlcquery", "-snapshot", secondIndex, "-queries", queryFile, "-method", "index")
	if !strings.Contains(out, "50/50 match ground truth") {
		t.Errorf("rlcquery on the built bundle: %s", out)
	}
	out = run("rlcinspect", "-snapshot", secondIndex, "-vertices", "0")
	if !strings.Contains(out, "entries:") {
		t.Errorf("rlcinspect on the built bundle: %s", out)
	}
}
