package rlc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// rlcvet takes positional package patterns, so it cannot ride in cliTools
// (whose conformance loop requires tools to reject stray positionals). This
// file holds it to the same usage contract minus that check, plus the
// vet-specific surfaces: -list and the exit codes of an analysis run.

const rlcvetSynopsis = "rlcvet — static analysis enforcing rlc-go's noalloc and error-code invariants"

func TestCLIVetUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI vet test skipped in -short mode")
	}
	bin := buildTool(t, t.TempDir(), "rlcvet")

	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Errorf("rlcvet -h exited non-zero: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, rlcvetSynopsis) {
		t.Errorf("rlcvet -h lacks its synopsis:\n%s", text)
	}
	if !strings.Contains(text, "usage: rlcvet") {
		t.Errorf("rlcvet -h lacks a usage line:\n%s", text)
	}
	if !strings.Contains(text, "flags:") {
		t.Errorf("rlcvet -h lacks the flag list:\n%s", text)
	}

	out, err = exec.Command(bin, "-no-such-flag").CombinedOutput()
	if err == nil {
		t.Errorf("rlcvet accepted an unknown flag; output:\n%s", out)
	}
	if !strings.Contains(string(out), "usage: rlcvet") {
		t.Errorf("rlcvet unknown-flag output lacks usage:\n%s", out)
	}

	out, err = exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Errorf("rlcvet -list exited non-zero: %v\n%s", err, out)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if got := strings.Join(listed, " "); got != "noalloc errcode" {
		t.Errorf("rlcvet -list names %q, want exactly noalloc errcode:\n%s", got, out)
	}
}

// TestCLIVetFindings runs rlcvet end to end against a throwaway module
// seeded with one allocation in a //rlc:noalloc function, expecting exit
// code 1 and a noalloc diagnostic — then against the same module with the
// allocation gone, expecting a silent exit 0 — and last with the directive
// misspelled, which must fail again (exit 1) instead of switching the check
// off.
func TestCLIVetFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI vet test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "rlcvet")

	mod := filepath.Join(dir, "mod")
	if err := os.MkdirAll(mod, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module vetprobe\n\ngo 1.24\n")
	writeFile("probe.go", `package vetprobe

//rlc:noalloc
func Head(xs []int) []int {
	return make([]int, 1)
}
`)

	out, err := exec.Command(bin, "-C", mod, ".").CombinedOutput()
	if err == nil {
		t.Fatalf("rlcvet exited zero on a seeded allocation; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("rlcvet on a seeded allocation: want exit code 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "noalloc") || !strings.Contains(string(out), "make allocates") {
		t.Errorf("rlcvet output lacks the noalloc diagnostic:\n%s", out)
	}

	writeFile("probe.go", `package vetprobe

//rlc:noalloc
func Head(xs []int) []int {
	return xs[:1]
}
`)
	if out, err := exec.Command(bin, "-C", mod, ".").CombinedOutput(); err != nil {
		t.Errorf("rlcvet exited non-zero on a clean module: %v\n%s", err, out)
	}

	writeFile("probe.go", `package vetprobe

//rlc:noaloc
func Head(xs []int) []int {
	return xs[:1]
}
`)
	out, err = exec.Command(bin, "-C", mod, "-checks", "errcode", ".").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("rlcvet on a misspelled directive: want exit code 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "unknown directive //rlc:noaloc") {
		t.Errorf("rlcvet output lacks the unknown-directive diagnostic:\n%s", out)
	}
}
