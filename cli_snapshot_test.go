package rlc_test

import (
	"encoding/json"
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

// TestCLISnapshotWorkflow drives the bundle workflow end to end at the
// binary surface: rlcbuild -o renders a self-contained snapshot, rlcinspect
// -snapshot dumps and verifies its sections, rlcserve -snapshot serves it,
// and a rebuild + SIGHUP hot-swaps the running server onto
// the new bundle — observable because the rebuilt graph flips a query's
// answer — before SIGTERM drains it cleanly.
func TestCLISnapshotWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI snapshot test skipped in -short mode")
	}
	dir := t.TempDir()
	rlcgen := buildTool(t, dir, "rlcgen")
	rlcbuild := buildTool(t, dir, "rlcbuild")
	rlcinspect := buildTool(t, dir, "rlcinspect")
	rlcserve := buildTool(t, dir, "rlcserve")

	graphFile := filepath.Join(dir, "fig2.graph")
	if out, err := exec.Command(rlcgen, "-model", "fig2", "-out", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("rlcgen fig2: %v\n%s", err, out)
	}
	bundle := filepath.Join(dir, "fig2.rlcs")
	out, err := exec.Command(rlcbuild, "-graph", graphFile, "-o", bundle).CombinedOutput()
	if err != nil {
		t.Fatalf("rlcbuild -o: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "snapshot bundle, verified") {
		t.Errorf("rlcbuild -o output: %s", out)
	}

	out, err = exec.Command(rlcinspect, "-snapshot", bundle).CombinedOutput()
	if err != nil {
		t.Fatalf("rlcinspect -snapshot: %v\n%s", err, out)
	}
	for _, want := range []string{"all sections verified", "entries", "fingerprint", "crc32c"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("rlcinspect -snapshot output lacks %q:\n%s", want, out)
		}
	}

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

	addrRe := regexp.MustCompile(`serving on (\S+)`)
	reloadRe := regexp.MustCompile(`reloaded \S+ in \S+ \(generation 2\)`)
	addrCh := make(chan string, 1)
	reloadCh := make(chan struct{}, 1)
	outCh := make(chan string, 1)
	go func() {
		var all strings.Builder
		buf := make([]byte, 4096)
		reported := false
		for {
			n, err := stdout.Read(buf)
			all.Write(buf[:n])
			if m := addrRe.FindStringSubmatch(all.String()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if !reported && reloadRe.MatchString(all.String()) {
				reported = true
				reloadCh <- struct{}{}
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

	query := func(s, dst, l string) bool {
		t.Helper()
		resp, err := http.Get(base + "/query?s=" + s + "&t=" + dst + "&l=" + l)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		defer resp.Body.Close()
		var qr struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return qr.Reachable
	}
	if query("v1", "v4", "l1") {
		t.Fatal("(v1, v4, l1+) should be unreachable on the original Fig. 2")
	}

	// Rebuild the bundle from a graph with an extra v1 -l1-> v4 edge and
	// hot-swap it into the running server.
	patched := filepath.Join(dir, "fig2b.graph")
	orig, err := os.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(patched, append(orig, []byte("v1 v4 l1\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(rlcbuild, "-graph", patched, "-o", bundle).CombinedOutput(); err != nil {
		t.Fatalf("rebuild: %v\n%s", err, out)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	select {
	case <-reloadCh:
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not report the reload")
	}
	if !query("v1", "v4", "l1") {
		t.Fatal("(v1, v4, l1+) should be reachable after the hot reload")
	}

	// /stats reports the new generation and the snapshot source.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Generation uint64 `json:"generation"`
		Source     string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Generation != 2 || !strings.Contains(st.Source, "fig2.rlcs") {
		t.Fatalf("stats after reload: generation %d, source %q", st.Generation, st.Source)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	var all string
	select {
	case all = <-outCh:
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not close stdout after SIGTERM")
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- cmd.Wait() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("rlcserve exited non-zero: %v\n%s", err, all)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("rlcserve did not exit after SIGTERM")
	}
	if !strings.Contains(all, "shut down cleanly") {
		t.Errorf("missing graceful-shutdown report:\n%s", all)
	}
}
