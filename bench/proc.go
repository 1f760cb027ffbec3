package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// managed is a child process of the benchmark. It lives in its own process
// group so one signal reaches it and anything it might spawn, and the kernel
// kills it if the benchmark itself dies without cleaning up.
type managed struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
}

// processes tracks every live child so the signal handler and the watchdog
// can kill them from any goroutine.
var processes struct {
	mu   sync.Mutex
	live map[*managed]struct{}
}

// startManaged starts cmd and a goroutine that reaps it; kill ends both.
//
//histburst:worker kill
func startManaged(cmd *exec.Cmd) (*managed, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// Pdeathsig fires when the starting *thread* exits, so the goroutine
	// stays on its thread until the child is tracked.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	m := &managed{cmd: cmd, exited: make(chan struct{})}
	processes.mu.Lock()
	if processes.live == nil {
		processes.live = make(map[*managed]struct{})
	}
	processes.live[m] = struct{}{}
	processes.mu.Unlock()
	go func() {
		cmd.Wait() //histburst:allow errdrop -- the exit status of a killed child carries no information
		close(m.exited)
	}()
	return m, nil
}

// kill SIGKILLs the child's process group and waits until it is reaped.
// Safe to call more than once and from any goroutine.
func (m *managed) kill() {
	syscall.Kill(-m.cmd.Process.Pid, syscall.SIGKILL) //histburst:allow errdrop -- ESRCH when it already exited is fine
	<-m.exited
	processes.mu.Lock()
	delete(processes.live, m)
	processes.mu.Unlock()
}

func (m *managed) pid() int { return m.cmd.Process.Pid }

func killAllChildren() {
	processes.mu.Lock()
	live := make([]*managed, 0, len(processes.live))
	for m := range processes.live {
		live = append(live, m)
	}
	processes.mu.Unlock()
	for _, m := range live {
		m.kill()
	}
}

// keepAwakeFlag is the hidden flag that turns this program into a spinner.
const keepAwakeFlag = "-keep-awake"

// keepAwake starts one idle-priority spinner per CPU. On a virtual machine a
// core that goes idle is handed back to the host, and waking it for the next
// request costs tens of microseconds that vary with the host's mood: with
// idle cores a POINT frame took 143 µs at the median and its run-to-run
// spread was 15 %, a cold start of burstd varied by 23 %; with the cores kept
// awake it is 80 µs, 11 % and 3 %. The spinners run under SCHED_IDLE, so they
// only get what nobody else wants.
func keepAwake() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		if _, err := startManaged(exec.Command(self, keepAwakeFlag)); err != nil {
			return fmt.Errorf("start keep-awake spinner: %w", err)
		}
	}
	return nil
}

// spin is the spinner: drop to the idle scheduling class (or, where that is
// refused, to the lowest nice level) and burn whatever CPU is left over.
func spin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) //histburst:allow errdrop -- best effort; an unprioritised spinner still works
	}
	for {
	}
}

// child is one running burstd.
type child struct {
	*managed
	httpAddr string
	wireAddr string
	logPath  string
}

// serverProcs is the GOMAXPROCS burstd runs with: the machine's cores, at
// most two, so the numbers stay comparable between a laptop and a server.
func serverProcs() int { return min(runtime.NumCPU(), 2) }

// freeAddr asks the kernel for an unused loopback port and releases it. A
// rare race with another process taking the port is handled by startBurstd
// retrying with fresh ports.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// startBurstd launches bin on the store directory and returns once ready
// reports the server answers, or fails after timeout with the tail of the
// server's stderr. The returned duration runs from exec to that first
// answer.
func startBurstd(bin, storeDir, logPath string, extra []string, ready func(*child) error, timeout time.Duration) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, took, err := startBurstdOnce(bin, storeDir, logPath, extra, ready, timeout)
		if err == nil {
			return c, took, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, 0, lastErr
}

func startBurstdOnce(bin, storeDir, logPath string, extra []string, ready func(*child) error, timeout time.Duration) (*child, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append([]string{
		"-addr", httpAddr, "-wire-addr", wireAddr, "-snapshots", storeDir,
		"-checkpoint", "0", "-scrub-interval", "-1s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	start := time.Now()
	m, err := startManaged(cmd)
	if err != nil {
		return nil, 0, fmt.Errorf("start burstd: %w", err)
	}
	c := &child{managed: m, httpAddr: httpAddr, wireAddr: wireAddr, logPath: logPath}

	deadline := start.Add(timeout)
	for {
		if err = ready(c); err == nil {
			return c, time.Since(start), nil
		}
		select {
		case <-c.exited:
			err = errors.New("burstd exited before it was ready")
		default:
			if time.Now().Before(deadline) {
				time.Sleep(500 * time.Microsecond)
				continue
			}
			err = fmt.Errorf("burstd not ready after %s: %w", timeout, err)
		}
		c.kill()
		return nil, 0, fmt.Errorf("%w\n%s", err, tailOfFile(logPath, 40))
	}
}

// failure renders an error about this child with the tail of its stderr.
func (c *child) failure(err error) error {
	return fmt.Errorf("%w\nburstd log tail:\n%s", err, tailOfFile(c.logPath, 40))
}

func tailOfFile(path string, lines int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it is
// 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc stat")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns the peak resident set (VmHWM) of a process in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// buildBurstd compiles cmd/burstd into dir and returns the binary's path.
// modDir is the benchmark's module directory, which reaches the repository's
// packages through its replace directive.
func buildBurstd(modDir, dir string) (string, error) {
	bin := filepath.Join(dir, "burstd")
	cmd := exec.Command("go", "build", "-o", bin, "histburst/cmd/burstd")
	cmd.Dir = modDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build burstd: %w\n%s", err, out)
	}
	return bin, nil
}
