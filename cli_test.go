package rlc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline builds the command-line tools and exercises the full
// generate -> build -> query -> inspect pipeline end to end.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"rlcgen", "rlcbuild", "rlcquery", "rlcinspect", "rlcbench"} {
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
	bundle := filepath.Join(dir, "g.rlcs")

	out := run("rlcgen", "-model", "er", "-n", "300", "-d", "4", "-labels", "4",
		"-seed", "3", "-out", graphFile, "-workload", queryFile, "-queries", "25", "-len", "2")
	if !strings.Contains(out, "300 vertices") {
		t.Errorf("rlcgen output unexpected: %s", out)
	}

	out = run("rlcbuild", "-graph", graphFile, "-k", "2", "-o", bundle)
	if !strings.Contains(out, "indexing time") || !strings.Contains(out, "wrote") {
		t.Errorf("rlcbuild output unexpected: %s", out)
	}

	// Every method answers the workload from the bundle (index and graph
	// both come out of it); the traversal methods answer it from the graph
	// file too, which has no index.
	for _, method := range []string{"index", "bfs", "bibfs", "dfs", "hybrid"} {
		sources := [][]string{{"-snapshot", bundle}}
		if method != "index" && method != "hybrid" {
			sources = append(sources, []string{"-graph", graphFile})
		}
		for _, source := range sources {
			out = run("rlcquery", append(source, "-queries", queryFile, "-method", method)...)
			if !strings.Contains(out, "50/50 match ground truth") {
				t.Errorf("rlcquery %s -method %s: %s", source[0], method, out)
			}
		}
	}

	// 50 queries clamp below the requested 4 workers (chunked scheduling),
	// and the tool reports the effective count.
	out = run("rlcquery", "-snapshot", bundle, "-queries", queryFile, "-batch", "-workers", "4")
	if !strings.Contains(out, "50/50 match ground truth") || !strings.Contains(out, "1 workers") {
		t.Errorf("rlcquery batch: %s", out)
	}

	// The single-query answer (the text before the timing bracket) is the
	// same from the bundle's index and from a traversal of the graph file.
	answer := func(args ...string) string {
		t.Helper()
		out := run("rlcquery", append(args, "-s", "0", "-t", "1", "-expr", "(l0 l1)+")...)
		ans, _, ok := strings.Cut(out, "  [")
		if !ok || !strings.HasPrefix(ans, "(0, 1, (l0 l1)+) = ") {
			t.Fatalf("rlcquery single %v: %s", args, out)
		}
		return ans
	}
	if index, bibfs := answer("-snapshot", bundle, "-method", "index"), answer("-graph", graphFile, "-method", "bibfs"); index != bibfs {
		t.Errorf("rlcquery -method index on the bundle says %q, -method bibfs on the graph says %q", index, bibfs)
	}

	out = run("rlcinspect", "-snapshot", bundle, "-vertices", "0")
	if !strings.Contains(out, "all sections verified") || !strings.Contains(out, "entries:") || !strings.Contains(out, "Lout:") {
		t.Errorf("rlcinspect: %s", out)
	}

	// A micro bench run: table3 only, on a tiny filter, writing markdown.
	resultsDir := filepath.Join(dir, "results")
	out = run("rlcbench", "-exp", "table3", "-datasets", "AD", "-quiet", "-out", resultsDir)
	if !strings.Contains(out, "table3") {
		t.Errorf("rlcbench: %s", out)
	}
	if _, err := os.Stat(filepath.Join(resultsDir, "table3.md")); err != nil {
		t.Errorf("rlcbench did not write markdown: %v", err)
	}
}

// TestCLIErrors verifies the tools fail cleanly on bad input.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI errors skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rlcbuild")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rlcbuild").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("rlcbuild without flags should fail")
	}
	if err := exec.Command(bin, "-graph", "/nonexistent", "-o", filepath.Join(dir, "x")).Run(); err == nil {
		t.Error("rlcbuild with missing graph should fail")
	}
}
