package rlc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
)

// servingProc is one binary under test that has reported its listen
// address; terminate shuts it down and asserts a clean drain.
type servingProc struct {
	name  string
	cmd   *exec.Cmd
	base  string
	head  string // stdout up to the "serving on" line
	outCh chan string
}

// startServing launches a binary that prints "serving on ADDR" and waits
// for that line, returning the process with its base URL.
func startServing(t *testing.T, name string, bin string, args ...string) *servingProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	addrRe := regexp.MustCompile(`serving on (\S+)`)
	headCh := make(chan string, 1)
	outCh := make(chan string, 1)
	go func() {
		var all strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := stdout.Read(buf)
			all.Write(buf[:n])
			if addrRe.MatchString(all.String()) {
				select {
				case headCh <- all.String():
				default:
				}
			}
			if err != nil {
				outCh <- all.String()
				return
			}
		}
	}()
	select {
	case head := <-headCh:
		addr := addrRe.FindStringSubmatch(head)[1]
		return &servingProc{name: name, cmd: cmd, base: "http://" + addr, head: head, outCh: outCh}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not report its listen address", name)
		return nil
	}
}

func (p *servingProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", p.name, err)
	}
	var out string
	select {
	case out = <-p.outCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not close stdout after SIGTERM", p.name)
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- p.cmd.Wait() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v\n%s", p.name, err, out)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM", p.name)
	}
	if !strings.Contains(out, "shut down cleanly") {
		t.Errorf("%s missing graceful-shutdown report:\n%s", p.name, out)
	}
}

type healthView struct {
	Role              string `json:"role"`
	Epoch             uint64 `json:"epoch"`
	Journal           int    `json:"journal"`
	JournalSeq        uint64 `json:"journal_seq"`
	BundleFingerprint string `json:"bundle_fingerprint"`
}

func getHealth(t *testing.T, base string) healthView {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz %s: %v", base, err)
	}
	defer resp.Body.Close()
	var h healthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz %s: %v", base, err)
	}
	return h
}

// TestCLICluster drives the replicated tier end to end through the real
// binaries, all started from one rlcbuild bundle: a leader, two followers,
// and a router on ephemeral ports. A write through the router is read back
// through its own pin token, and a POST /rebuild fold cuts both followers
// over to an identical bundle. The leader refuses deletions
// (deletions_unsupported), and an update that takes its journal to
// -rebuild-threshold folds in the background into the bundle it writes at
// -rebuild-out, which the followers adopt too. Every process drains cleanly
// on SIGTERM.
func TestCLICluster(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cluster test skipped in -short mode")
	}
	dir := t.TempDir()
	rlccluster := buildTool(t, dir, "rlccluster")
	rlcrouter := buildTool(t, dir, "rlcrouter")
	bundle := fig2Bundle(t, dir)
	foldOut := filepath.Join(dir, "fold.rlcs")

	leader := startServing(t, "leader", rlccluster,
		"-role", "leader", "-snapshot", bundle, "-rebuild-threshold", "3", "-rebuild-out", foldOut,
		"-addr", "127.0.0.1:0")
	var followers []*servingProc
	for i := 0; i < 2; i++ {
		followers = append(followers, startServing(t, fmt.Sprintf("follower%d", i), rlccluster,
			"-role", "follower", "-snapshot", bundle, "-leader", leader.base,
			"-poll-wait", "250ms", "-addr", "127.0.0.1:0"))
	}
	rtr := startServing(t, "router", rlcrouter,
		"-leader", leader.base,
		"-followers", followers[0].base+","+followers[1].base,
		"-health-interval", "50ms", "-addr", "127.0.0.1:0")

	// v6 has no outgoing edges in Fig. 2, so (v6, v4, l3+) is false until
	// the edge v6 -l3-> v4 is inserted.
	query := func(pin string) (bool, *http.Response) {
		req, err := http.NewRequest(http.MethodGet, rtr.base+"/query?s=v6&t=v4&l=l3", nil)
		if err != nil {
			t.Fatal(err)
		}
		if pin != "" {
			req.Header.Set("X-Rlc-Pin", pin)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("routed query: %v", err)
		}
		defer resp.Body.Close()
		var qr struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode query: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query status %d", resp.StatusCode)
		}
		return qr.Reachable, resp
	}

	if got, _ := query(""); got {
		t.Fatal("(v6, v4, l3+) should be false before the insert")
	}

	// Write through the router; its response token pins the read.
	resp, err := http.Post(rtr.base+"/update", "application/json",
		strings.NewReader(`{"s":"v6","l":"l3","t":"v4"}`))
	if err != nil {
		t.Fatalf("routed update: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed update status %d", resp.StatusCode)
	}
	token := resp.Header.Get("X-Rlc-Pin")
	if token == "" {
		t.Fatal("routed update minted no pin token")
	}

	// Read-your-write: pinned at the write token, whichever replica serves.
	if got, qresp := query(token); !got {
		t.Fatalf("pinned read at %s missed the write (served by %s)",
			token, qresp.Header.Get("X-Rlc-Backend"))
	}

	// converge waits for the leader to serve epoch with an empty journal and
	// for both followers to reach its epoch, sequence and fingerprint.
	converge := func(epoch uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		want := getHealth(t, leader.base)
		for want.Epoch != epoch || want.Journal != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("leader never reached epoch %d with an empty journal: %+v", epoch, want)
			}
			time.Sleep(20 * time.Millisecond)
			want = getHealth(t, leader.base)
		}
		for _, f := range followers {
			for {
				got := getHealth(t, f.base)
				if got == (healthView{Role: "follower", Epoch: want.Epoch,
					JournalSeq: want.JournalSeq, BundleFingerprint: want.BundleFingerprint}) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never converged: follower %+v, leader %+v", f.name, got, want)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	// reachable asks one node directly, bypassing the router.
	reachable := func(p *servingProc, q string) bool {
		t.Helper()
		resp, err := http.Get(p.base + "/query?" + q)
		if err != nil {
			t.Fatalf("%s query: %v", p.name, err)
		}
		defer resp.Body.Close()
		var qr struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("%s decode: %v", p.name, err)
		}
		return qr.Reachable
	}

	// Fold on the leader; both followers must cut over to the identical
	// bundle (same epoch, sequence, and fingerprint as the leader).
	resp, err = http.Post(rtr.base+"/rebuild", "application/json", nil)
	if err != nil {
		t.Fatalf("routed rebuild: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed rebuild status %d", resp.StatusCode)
	}
	converge(1)

	// The write survived the cutover on every node.
	nodes := []*servingProc{leader, followers[0], followers[1]}
	for _, p := range nodes {
		if !reachable(p, "s=v6&t=v4&l=l3") {
			t.Fatalf("%s lost the write across the cutover", p.name)
		}
	}

	// The write path is insert-only: a delete is refused with its code.
	resp, err = http.Post(leader.base+"/update", "application/json",
		strings.NewReader(`{"s":"v6","l":"l3","t":"v4","op":"delete"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"deletions_unsupported"`) {
		t.Fatalf("delete answered %d: %s", resp.StatusCode, body)
	}

	// Three inserts take the journal to -rebuild-threshold: the answer flips
	// at once, and the update starts a background fold, with no POST
	// /rebuild, whose bundle lands at -rebuild-out and on both followers.
	if reachable(leader, "s=v6&t=v1&l=l2") {
		t.Fatal("(v6, v1, l2+) should be false before the insert")
	}
	resp, err = http.Post(leader.base+"/update", "application/json", strings.NewReader(
		`{"edges":[{"s":"v6","l":"l2","t":"v1"},{"s":"v5","l":"l1","t":"v2"},{"s":"v4","l":"l3","t":"v6"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"rebuild_triggered":true`) {
		t.Fatalf("threshold update answered %d: %s", resp.StatusCode, body)
	}
	if !reachable(leader, "s=v6&t=v1&l=l2") {
		t.Fatal("(v6, v1, l2+) did not flip on the update")
	}
	converge(2)
	folded, err := rlc.OpenVerifiedSnapshot(foldOut)
	if err != nil {
		t.Fatalf("the threshold fold left no bundle at -rebuild-out: %v", err)
	}
	if fp, want := folded.Fingerprint().Compact(), getHealth(t, leader.base).BundleFingerprint; fp != want {
		t.Fatalf("-rebuild-out holds fingerprint %s, the leader serves %s", fp, want)
	}
	for _, p := range nodes {
		if !reachable(p, "s=v6&t=v1&l=l2") {
			t.Fatalf("%s lost the threshold-folded write", p.name)
		}
	}

	// A follower must refuse direct client writes.
	resp, err = http.Post(followers[0].base+"/update", "application/json",
		strings.NewReader(`{"s":"v6","l":"l3","t":"v5"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("direct follower write answered %d, want 403", resp.StatusCode)
	}

	rtr.terminate(t)
	for _, f := range followers {
		f.terminate(t)
	}
	leader.terminate(t)
}
