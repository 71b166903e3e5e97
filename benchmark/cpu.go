package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Where things run. Two properties of a small virtual machine decided what
// an untreated run measured (README.md, "How steady the numbers are"), and
// this file removes both.
//
// One: a closed loop on one connection is a ping-pong between the client's
// thread and the server's. When the guest scheduler has the two on one CPU
// a wake-up is a context switch; when it has them on two, every wake-up is
// an inter-processor interrupt that goes through the hypervisor, and the
// same request takes two to three times as long. The scheduler moves
// between the two placements every few seconds, so a run was a mixture of
// two latencies in proportions that changed from run to run. The harness
// therefore pins itself to the first CPU it is allowed, before it starts
// anything; the servers and rlcbuild inherit that. The ping-pong has no
// parallelism to lose. The one exception is mixed-repl's leader, which gets
// the last allowed CPU: reads never pass through it, and a fold that shared
// the saturated CPU waited 12-58 s in fsync for its bundle in one run in
// ten (and once past the client's deadline, failing the run), where it
// takes under a second on a CPU of its own.
//
// Two: a virtual CPU halts whenever it has nothing to run, and a halted
// vCPU has to be rescheduled by the host before it can take the next
// wake-up. The harness keeps every CPU out of the halt state for the length
// of a run, the way idle=poll does on a bare-metal benchmark host: one
// child per CPU, pinned to it, spinning under SCHED_IDLE, the policy that
// runs only when nothing else wants the CPU and is preempted the moment
// anything does. The programs under test lose no cycles to it.

// cpuMask is a sched_setaffinity bit set: 1,024 CPUs.
type cpuMask [16]uint64

func setAffinity(tid, cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	return setAffinityMask(tid, &mask)
}

func setAffinityMask(tid int, mask *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask))); errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs returns the CPUs this process may run on, as a mask and as a
// list. Under a cpuset they need not be 0..N-1.
func allowedCPUs() (cpuMask, []int, error) {
	var mask cpuMask
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return mask, nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for cpu := 0; cpu < int(n)*8; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		return mask, nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	return mask, cpus, nil
}

// eachThread calls fn with the id of every thread of this process. Threads
// the runtime starts later are cloned from these and inherit their mask.
func eachThread(fn func(tid int) error) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := fn(tid); err != nil && err != syscall.ESRCH { // ESRCH: the thread has exited
			return err
		}
	}
	return nil
}

// pinProcess confines this process, and every child it starts from now on,
// to cpu, and runs the Go scheduler on one P to match. The function it
// returns undoes both.
func pinProcess(all cpuMask, cpu int) (restore func(), err error) {
	if err := eachThread(func(tid int) error { return setAffinity(tid, cpu) }); err != nil {
		return nil, fmt.Errorf("pin to CPU %d: %w", cpu, err)
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		eachThread(func(tid int) error { return setAffinityMask(tid, &all) })
	}, nil
}

// startPinned starts cmd confined to cpu: a child inherits the mask of the
// thread that forks it, so the calling thread moves to cpu for the length
// of the fork and back to home after it. While a thread is locked the
// runtime starts no thread from it, so nothing else inherits the detour.
func startPinned(cmd *exec.Cmd, cpu, home int) error {
	if cpu == home {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		return fmt.Errorf("pin to CPU %d: %w", cpu, err)
	}
	err := cmd.Start()
	if back := setAffinity(0, home); back != nil && err == nil {
		err = fmt.Errorf("pin back to CPU %d: %w", home, back)
	}
	return err
}

// spinForever is the -spin mode: pin to cpu, drop to SCHED_IDLE, spin
// until killed. A spinner that could not be pinned or demoted still spins,
// at the weakest priority it could get, and says so on standard error: the
// run's numbers are then less steady, not wrong.
func spinForever(cpu int) {
	runtime.LockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: spinner not pinned to CPU %d: %v\n", cpu, err)
	}
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// No SCHED_IDLE here: the weakest ordinary priority is next best.
		fmt.Fprintf(os.Stderr, "benchmark: spinner on CPU %d runs at nice 19, not SCHED_IDLE: %v\n", cpu, errno)
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: spinner on CPU %d: nice 19: %v\n", cpu, err)
			os.Exit(1)
		}
	}
	for {
	}
}

// startSpinners starts one -spin child per allowed CPU; close reaps them
// with the other children.
func (p *procs) startSpinners(cpus []int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, cpu := range cpus {
		c := &child{name: fmt.Sprintf("spin%d", cpu), done: make(chan struct{})}
		c.cmd = exec.Command(exe, "-spin", strconv.Itoa(cpu))
		c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		c.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		c.cmd.Stderr = os.Stderr
		if err := c.cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", c.name, err)
		}
		go func() {
			c.cmd.Wait()
			close(c.done)
		}()
		p.mu.Lock()
		p.spinners = append(p.spinners, c)
		p.mu.Unlock()
	}
	return nil
}
