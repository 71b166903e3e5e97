package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every child process and the scratch directory of one run, and
// is the one place they are torn down: close kills and reaps each child
// and removes the directory, whether the run ended, failed or was
// interrupted.
type procs struct {
	bin string // directory holding rlcbuild, rlcserve, rlccluster, rlcrouter
	dir string // scratch: graphs, bundles, child logs

	// Placement (cpu.go): the harness and what it starts run on cpu, except
	// the replication leader, which runs on leaderCPU.
	cpu, leaderCPU int

	// cancel kills a build tool that is still running when close is called.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	children []*child // servers; stopAll kills them between set-ups
	spinners []*child // see cpu.go; they live as long as the run
	closed   bool
}

// child is one server process, bound to a loopback port of the kernel's
// choosing that it announces on its "serving on" line.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{} // closed once the process has been reaped
}

// buildBinaries compiles the four commands under test from the parent
// module into bin.
func buildBinaries(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/rlcbuild", "./cmd/rlcserve", "./cmd/rlccluster", "./cmd/rlcrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

func newProcs(root, bin string) (*procs, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	p := &procs{bin: bin, dir: dir}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	return p, nil
}

func (p *procs) path(name string) string { return filepath.Join(p.dir, name) }

// run executes a short-lived tool (rlcbuild) to completion.
func (p *procs) run(name string, args ...string) error {
	cmd := exec.CommandContext(p.ctx, filepath.Join(p.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}

// start launches a server on 127.0.0.1:0, on the harness's CPU, and returns
// once it has printed the address it is serving on.
func (p *procs) start(label, name string, args ...string) (*child, error) {
	return p.startOn(p.cpu, label, name, args...)
}

// startOn is start with the child confined to cpu.
func (p *procs) startOn(cpu int, label, name string, args ...string) (*child, error) {
	args = append(args, "-addr", "127.0.0.1:0")
	c := &child{name: label, log: p.path(label + ".log"), done: make(chan struct{})}
	// One append-mode descriptor takes the child's stderr directly and its
	// stdout line by line, so the two interleave instead of overwriting.
	logf, err := os.OpenFile(c.log, os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	c.cmd = exec.Command(filepath.Join(p.bin, name), args...)
	// If the harness dies without running close, the kernel still takes
	// the children down with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = logf
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		err = fmt.Errorf("start %s: run is shutting down", label)
	} else if err = startPinned(c.cmd, cpu, p.cpu); err != nil {
		err = fmt.Errorf("start %s: %w", label, err)
	}
	if err != nil {
		p.mu.Unlock()
		logf.Close()
		return nil, err
	}
	p.children = append(p.children, c)
	p.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		c.cmd.Wait()
		logf.Close()
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			tail, _ := os.ReadFile(c.log)
			return nil, fmt.Errorf("%s exited before serving:\n%s", label, tail)
		}
		c.addr = addr
		return c, nil
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("%s did not start serving within 60s", label)
	}
}

// stop kills one child and waits until it has been reaped.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.done
}

// stopAll kills every child; the scratch directory stays.
func (p *procs) stopAll() {
	p.mu.Lock()
	cs := p.children
	p.children = nil
	p.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// close stops every child and removes the scratch directory. Safe to call
// from the signal handler while the run is still going, and more than once.
func (p *procs) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	p.stopAll()
	p.mu.Lock()
	spinners := p.spinners
	p.spinners = nil
	p.mu.Unlock()
	for _, c := range spinners {
		c.stop()
	}
	os.RemoveAll(p.dir)
}

// cpuSeconds returns the CPU time the children's threads have run so far,
// from the scheduler's per-thread accounting (/proc/<pid>/task/<tid>/
// schedstat, nanoseconds). utime and stime in /proc/<pid>/stat count 10 ms
// ticks, too coarse for a quarter-second slice. A thread that exits takes
// its time with it; Go servers keep theirs. A child none of whose threads
// could be read is an error — a kernel without scheduler statistics would
// otherwise report a CPU time of 0.
func cpuSeconds(cs []*child) (float64, error) {
	var ns int64
	for _, c := range cs {
		dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		read := 0
		for _, t := range tasks {
			raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			f := strings.Fields(string(raw))
			if len(f) == 0 {
				return 0, fmt.Errorf("unexpected schedstat for %s", c.name)
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected schedstat for %s: %w", c.name, err)
			}
			ns += v
			read++
		}
		if read == 0 {
			return 0, fmt.Errorf("no %s/*/schedstat readable for %s: CPU time cannot be measured on this kernel", dir, c.name)
		}
	}
	return float64(ns) / 1e9, nil
}

// rssPeakMB sums the children's peak resident set sizes (VmHWM).
func rssPeakMB(cs []*child) float64 {
	var kb int64
	for _, c := range cs {
		kb += vmHWM(c.cmd.Process.Pid)
	}
	return float64(kb) / 1024
}

func vmHWM(pid int) int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
