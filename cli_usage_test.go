package rlc_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// cliTools lists every command with the one-line synopsis its -h output (and
// the README table) must lead with.
var cliTools = map[string]string{
	"rlcbuild":   "rlcbuild — build and serialize an RLC index for a graph file",
	"rlcquery":   "rlcquery — evaluate RLC (and extended) queries against a graph",
	"rlcserve":   "rlcserve — serve RLC reachability queries over HTTP from hot-reloadable snapshot bundles",
	"rlcgen":     "rlcgen — generate synthetic graphs and query workloads",
	"rlcinspect": "rlcinspect — print RLC index internals: stats, distributions, entry sets",
	"rlcbench":   "rlcbench — reproduce the paper's experimental tables and figures",
	"rlccluster": "rlccluster — run a replicated RLC serving node: a journal-streaming leader or a self-healing follower",
	"rlcrouter":  "rlcrouter — epoch-pinned router for a replicated RLC cluster: health-aware read fan-out, hedged tail latency, monotone consistency tokens",
}

func buildTool(t *testing.T, dir, tool string) string {
	t.Helper()
	bin := filepath.Join(dir, tool)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", tool, err, out)
	}
	return bin
}

// fig2Bundle writes the paper's Fig. 2 graph with rlcgen into dir and its
// bundle with rlcbuild -o, the one way a serving binary gets an index, and
// returns the bundle's path.
func fig2Bundle(t *testing.T, dir string) string {
	t.Helper()
	graphFile := filepath.Join(dir, "fig2.graph")
	bundle := filepath.Join(dir, "fig2.rlcs")
	if out, err := exec.Command(buildTool(t, dir, "rlcgen"), "-model", "fig2", "-out", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("rlcgen fig2: %v\n%s", err, out)
	}
	if out, err := exec.Command(buildTool(t, dir, "rlcbuild"), "-graph", graphFile, "-k", "2", "-o", bundle).CombinedOutput(); err != nil {
		t.Fatalf("rlcbuild fig2: %v\n%s", err, out)
	}
	return bundle
}

// TestCLIUsageConformance holds every tool to the normalized usage contract:
// -h prints the synopsis, a usage line, and the flag list and exits zero;
// an unknown flag or an unexpected positional argument prints usage and
// exits non-zero.
func TestCLIUsageConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI usage test skipped in -short mode")
	}
	dir := t.TempDir()
	for tool, synopsis := range cliTools {
		bin := buildTool(t, dir, tool)

		out, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h exited non-zero: %v\n%s", tool, err, out)
		}
		text := string(out)
		if !strings.Contains(text, synopsis) {
			t.Errorf("%s -h lacks its synopsis %q:\n%s", tool, synopsis, text)
		}
		if !strings.Contains(text, "usage: "+tool) {
			t.Errorf("%s -h lacks a usage line:\n%s", tool, text)
		}
		if !strings.Contains(text, "flags:") {
			t.Errorf("%s -h lacks the flag list:\n%s", tool, text)
		}

		out, err = exec.Command(bin, "-no-such-flag").CombinedOutput()
		if err == nil {
			t.Errorf("%s accepted an unknown flag; output:\n%s", tool, out)
		}
		if !strings.Contains(string(out), "usage: "+tool) {
			t.Errorf("%s unknown-flag output lacks usage:\n%s", tool, out)
		}

		out, err = exec.Command(bin, "stray-argument").CombinedOutput()
		if err == nil {
			t.Errorf("%s accepted a stray positional argument; output:\n%s", tool, out)
		}
		if !strings.Contains(string(out), "usage: "+tool) {
			t.Errorf("%s stray-argument output lacks usage:\n%s", tool, out)
		}
	}
}

// TestCLIRejectedFlags pins the flags and experiments that are gone. A
// retired flag exits 2 with usage, and stderr names that flag. Each row puts
// it after flags the tool still takes, so the flag package stops at the
// retired flag itself, not at an earlier one that is also gone. Retired are
// the flags of the v1 two-file format, of the result cache, of the parallel
// build, and of building an index anywhere but rlcbuild, together with the
// write path of rlcserve (rlccluster -role leader takes writes). The rlcbench
// experiments that measured the cache, the parallel build and the serving
// stack are unknown (benchmark/ measures that), and the index methods of
// rlcquery need a bundle.
func TestCLIRejectedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI usage test skipped in -short mode")
	}
	dir := t.TempDir()
	bundle := filepath.Join(dir, "never-opened.rlcs")
	bins := map[string]string{}
	run := func(tool string, args []string) (stderr string, exit int) {
		t.Helper()
		if bins[tool] == "" {
			bins[tool] = buildTool(t, dir, tool)
		}
		var errBuf strings.Builder
		cmd := exec.Command(bins[tool], args...)
		cmd.Stderr = &errBuf
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("%s %v: err = %v, want a non-zero exit", tool, args, err)
		}
		return errBuf.String(), exitErr.ExitCode()
	}

	retired := []struct {
		tool string
		args []string // ends with the retired flag and its value
	}{
		{"rlcbuild", []string{"-graph", "g", "-out", "x"}},
		{"rlcquery", []string{"-snapshot", bundle, "-index", "x"}},
		{"rlcserve", []string{"-snapshot", bundle, "-index", "x"}},
		{"rlcinspect", []string{"-snapshot", bundle, "-index", "x"}},

		{"rlcserve", []string{"-snapshot", bundle, "-cache", "0"}},
		{"rlcserve", []string{"-snapshot", bundle, "-cache-shards", "4"}},
		{"rlccluster", []string{"-role", "leader", "-snapshot", bundle, "-cache", "0"}},

		{"rlcbuild", []string{"-graph", "g", "-buildworkers", "1"}},
		{"rlcserve", []string{"-snapshot", bundle, "-buildworkers", "1"}},
		{"rlcbench", []string{"-exp", "table3", "-buildworkers", "1,2"}},

		{"rlcserve", []string{"-snapshot", bundle, "-graph", "g"}},
		{"rlcserve", []string{"-snapshot", bundle, "-k", "3"}},
		{"rlcserve", []string{"-snapshot", bundle, "-max-index-bytes", "4096"}},
		{"rlcserve", []string{"-snapshot", bundle, "-mutable", "true"}},
		{"rlcserve", []string{"-snapshot", bundle, "-rebuild-threshold", "3"}},
		{"rlcserve", []string{"-snapshot", bundle, "-rebuild-out", "fold.rlcs"}},
		{"rlccluster", []string{"-role", "leader", "-snapshot", bundle, "-graph", "g"}},
		{"rlccluster", []string{"-role", "leader", "-snapshot", bundle, "-k", "3"}},
		{"rlcinspect", []string{"-snapshot", bundle, "-graph", "g"}},
		{"rlcinspect", []string{"-snapshot", bundle, "-k", "3"}},
		{"rlcquery", []string{"-snapshot", bundle, "-s", "0", "-t", "1", "-expr", "l0+", "-k", "3"}},
	}
	for _, c := range retired {
		flag := c.args[len(c.args)-2]
		stderr, exit := run(c.tool, c.args)
		if exit != 2 {
			t.Errorf("%s %v: exit status %d, want 2\n%s", c.tool, c.args, exit, stderr)
		}
		for _, want := range []string{"flag provided but not defined: " + flag + "\n", "usage: " + c.tool} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s %v: stderr lacks %q:\n%s", c.tool, c.args, want, stderr)
			}
		}
	}

	refused := []struct {
		tool string
		args []string
		want string
	}{
		{"rlcbench", []string{"-exp", "serve"}, `unknown experiment "serve"`},
		{"rlcbench", []string{"-exp", "pbuild"}, `unknown experiment "pbuild"`},
		{"rlcbench", []string{"-exp", "ingest"}, `unknown experiment "ingest"`},
		{"rlcbench", []string{"-exp", "budget"}, `unknown experiment "budget"`},
		{"rlcbench", []string{"-exp", "repl"}, `unknown experiment "repl"`},
		{"rlcbench", []string{"-exp", "batch"}, `unknown experiment "batch"`},

		{"rlcserve", nil, "-snapshot is required"},
		{"rlccluster", []string{"-role", "leader"}, "-snapshot is required"},
		{"rlcinspect", nil, "-snapshot is required"},
		{"rlcquery", []string{"-graph", "g", "-s", "0", "-t", "1", "-expr", "l0+"}, "-method index needs -snapshot"},
		{"rlcquery", []string{"-graph", "g", "-method", "hybrid", "-s", "0", "-t", "1", "-expr", "l0+"}, "-method hybrid needs -snapshot"},
	}
	for _, c := range refused {
		stderr, exit := run(c.tool, c.args)
		if exit != 1 {
			t.Errorf("%s %v: exit status %d, want 1\n%s", c.tool, c.args, exit, stderr)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%s %v: stderr lacks %q:\n%s", c.tool, c.args, c.want, stderr)
		}
	}
}

// TestREADMEToolTableFlags holds the hand-maintained tool table in README.md
// to the binaries: every backticked -flag in a tool's row must appear in that
// tool's -h flag list.
func TestREADMEToolTableFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI usage test skipped in -short mode")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(rlc[a-z]+)` \\|.*$")
	flagRe := regexp.MustCompile("`(-[A-Za-z0-9-]+)`")
	dir := t.TempDir()
	rows := rowRe.FindAllStringSubmatch(string(readme), -1)
	if len(rows) < len(cliTools) {
		t.Fatalf("README tool table has %d rows, want at least the %d tools under the usage contract", len(rows), len(cliTools))
	}
	for _, row := range rows {
		tool := row[1]
		help, _ := exec.Command(buildTool(t, dir, tool), "-h").CombinedOutput()
		flags := flagRe.FindAllStringSubmatch(row[0], -1)
		if len(flags) == 0 {
			t.Errorf("README row for %s names no flags", tool)
		}
		for _, m := range flags {
			listed := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m[1]) + `(\s|$)`)
			if !listed.Match(help) {
				t.Errorf("README lists %s for %s, but `%s -h` does not:\n%s", m[1], tool, tool, help)
			}
		}
	}
}

// TestCLIServe drives the rlcserve binary end to end: generate the Fig. 2
// graph with rlcgen, build its bundle with rlcbuild, start the server on an
// ephemeral port, query it over HTTP, and shut it down with SIGTERM
// expecting a graceful drain.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI serve test skipped in -short mode")
	}
	dir := t.TempDir()
	rlcserve := buildTool(t, dir, "rlcserve")
	bundle := fig2Bundle(t, dir)

	cmd := exec.Command(rlcserve, "-snapshot", bundle, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start rlcserve: %v", err)
	}
	defer cmd.Process.Kill()

	// The serve line reports the actual ephemeral address.
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	addrCh := make(chan string, 1)
	outCh := make(chan string, 1)
	go func() {
		var all strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := stdout.Read(buf)
			all.Write(buf[:n])
			if m := addrRe.FindStringSubmatch(all.String()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if err != nil {
				outCh <- all.String()
				return
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not report its listen address")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// (v1, v5, (l1 l2)+) is true on Fig. 2; the bundle preserves names.
	resp, err = http.Get(base + "/query?s=v1&t=v5&l=l1%20l2")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var qr struct {
		Reachable bool `json:"reachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if !qr.Reachable {
		t.Fatal("(v1, v5, (l1 l2)+) should be reachable over HTTP")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Drain stdout to EOF before Wait — Wait closes the pipe and would
	// truncate the reader mid-stream.
	var out string
	select {
	case out = <-outCh:
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not close stdout after SIGTERM")
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- cmd.Wait() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("rlcserve exited non-zero after SIGTERM: %v\n%s", err, out)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not exit after SIGTERM")
	}
	if !strings.Contains(out, "shut down cleanly") {
		t.Errorf("missing graceful-shutdown report in output:\n%s", out)
	}
}

// TestPprofNotOnServingPort: the three serving binaries answer
// /debug/pprof/ with 404 on the address that takes queries, with the -pprof
// flag and without it; with it, the profiles are on the listener the flag
// named and nowhere else.
func TestPprofNotOnServingPort(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI serve test skipped in -short mode")
	}
	dir := t.TempDir()
	bundle := fig2Bundle(t, dir)
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	pprofRe := regexp.MustCompile(`pprof on (http://\S+/debug/pprof/)`)
	leader := startServing(t, "leader", buildTool(t, dir, "rlccluster"), "-role", "leader", "-snapshot", bundle, "-addr", "127.0.0.1:0")
	defer leader.terminate(t)
	for tool, args := range map[string][]string{
		"rlcserve":   {"-snapshot", bundle},
		"rlccluster": {"-role", "leader", "-snapshot", bundle},
		"rlcrouter":  {"-leader", leader.base},
	} {
		bin := buildTool(t, dir, tool)
		args = append(args, "-addr", "127.0.0.1:0")
		for _, flagged := range []bool{false, true} {
			if flagged {
				args = append(args, "-pprof", "127.0.0.1:0")
			}
			p := startServing(t, tool, bin, args...)
			if code := status(p.base + "/debug/pprof/"); code != http.StatusNotFound {
				t.Errorf("%s %v: /debug/pprof/ on the serving address answered %d, want 404", tool, args, code)
			}
			m := pprofRe.FindStringSubmatch(p.head)
			switch {
			case flagged && m == nil:
				t.Errorf("%s %v did not say where pprof listens:\n%s", tool, args, p.head)
			case flagged:
				if code := status(m[1]); code != http.StatusOK {
					t.Errorf("%s: %s answered %d, want 200", tool, m[1], code)
				}
			case m != nil:
				t.Errorf("%s %v serves pprof without being asked:\n%s", tool, args, p.head)
			}
			p.terminate(t)
		}
	}
}
