package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is a running wdserve child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	logs   *strings.Builder // stderr, for diagnostics
}

// startServer execs wdserve on an ephemeral loopback port and returns
// once it logs its address (that is, once loading has finished and it
// listens). started is the exec time.
func startServer(bin string, args []string, gomaxprocs int) (p *serverProc, started time.Time, err error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The child dies with the generator, however the generator ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, time.Time{}, err
	}
	p = &serverProc{cmd: cmd, exited: make(chan struct{}), logs: &strings.Builder{}}
	started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, started, err
	}
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if p.logs.Len() < 1<<16 {
				p.logs.WriteString(line + "\n")
			}
			// "serving N triples (…) on http://HOST:PORT/sparql (gate G)"
			if _, rest, ok := strings.Cut(line, " on http://"); ok && strings.Contains(line, "serving ") {
				host, _, _ := strings.Cut(rest, "/")
				select {
				case addr <- "http://" + host:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-logDone // Wait closes the pipe; read it to the end first
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.base = a
		return p, started, nil
	case <-p.exited:
		return nil, started, fmt.Errorf("wdserve exited during start-up:\n%s", p.logs.String())
	case <-time.After(150 * time.Second):
		p.stop()
		return nil, started, errors.New("wdserve did not start within 150s")
	}
}

// stop drains the server with SIGTERM, force-killing it after a grace
// period, and waits until the process has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpuTicksPerSecond is USER_HZ, 100 on every Linux this runs on.
const cpuTicksPerSecond = 100

// procCPU returns the process's user+sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / cpuTicksPerSecond, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
