package rlc_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIBuildWorkers covers cmd/rlcbuild end to end: generate a graph,
// build its bundle sequentially and with the -buildworkers flag, verify the
// two bundles are byte-identical (the determinism guarantee at the CLI
// surface), then round-trip through rlcquery and rlcinspect.
func TestCLIBuildWorkers(t *testing.T) {
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
	seqIndex := filepath.Join(dir, "seq.rlcs")
	parIndex := filepath.Join(dir, "par.rlcs")

	run("rlcgen", "-model", "ba", "-n", "400", "-d", "3", "-labels", "4",
		"-seed", "9", "-out", graphFile, "-workload", queryFile, "-queries", "25", "-len", "2")

	// Sequential build (explicit workers=1).
	out := run("rlcbuild", "-graph", graphFile, "-k", "2", "-buildworkers", "1", "-o", seqIndex)
	if !strings.Contains(out, "(1 build workers)") {
		t.Errorf("rlcbuild sequential output unexpected: %s", out)
	}

	// Parallel build: same graph, 4 workers; the tool reports the
	// scheduling counters and the bundle must match byte for byte.
	out = run("rlcbuild", "-graph", graphFile, "-k", "2", "-buildworkers", "4", "-o", parIndex)
	if !strings.Contains(out, "(4 build workers)") || !strings.Contains(out, "scheduling:") {
		t.Errorf("rlcbuild parallel output unexpected: %s", out)
	}
	seqBytes, err := os.ReadFile(seqIndex)
	if err != nil {
		t.Fatal(err)
	}
	parBytes, err := os.ReadFile(parIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, parBytes) {
		t.Fatalf("bundle built with -buildworkers 4 differs from sequential build (%d vs %d bytes)",
			len(parBytes), len(seqBytes))
	}

	// The default (-buildworkers 0 = GOMAXPROCS) must also match.
	defIndex := filepath.Join(dir, "def.rlcs")
	run("rlcbuild", "-graph", graphFile, "-k", "2", "-o", defIndex)
	defBytes, err := os.ReadFile(defIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, defBytes) {
		t.Fatal("bundle built with default -buildworkers differs from sequential build")
	}

	// Round-trip: the parallel-built bundle answers the generated workload
	// with full ground-truth agreement and inspects cleanly.
	out = run("rlcquery", "-snapshot", parIndex, "-queries", queryFile, "-method", "index")
	if !strings.Contains(out, "50/50 match ground truth") {
		t.Errorf("rlcquery on parallel-built index: %s", out)
	}
	out = run("rlcinspect", "-snapshot", parIndex, "-vertices", "0")
	if !strings.Contains(out, "entries:") {
		t.Errorf("rlcinspect on parallel-built index: %s", out)
	}
}

// TestCLIBuildWorkersRejected verifies rlcbuild fails cleanly on a negative
// worker count and writes nothing.
func TestCLIBuildWorkersRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rlcbuild")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rlcbuild").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	graphFile := filepath.Join(dir, "g.graph")
	if err := os.WriteFile(graphFile, []byte("0 1 0\n1 2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	indexFile := filepath.Join(dir, "g.rlcs")
	out, err := exec.Command(bin, "-graph", graphFile, "-buildworkers", "-3", "-o", indexFile).CombinedOutput()
	if err == nil {
		t.Fatalf("rlcbuild -buildworkers -3 succeeded, want failure; output: %s", out)
	}
	if !strings.Contains(string(out), "buildworkers") {
		t.Errorf("error message does not mention buildworkers: %s", out)
	}
	if _, err := os.Stat(indexFile); !os.IsNotExist(err) {
		t.Errorf("rlcbuild wrote a bundle despite the invalid flag")
	}
}
