package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one asqp-serve process under test. Its stdout and stderr go to a
// log file whose tail is printed when a run fails.
type child struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File
	started time.Time
	exited  chan struct{}
	waitErr error
}

// children tracks every live child so reapAll can kill them on any exit
// path, including a panic in the bench.
var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
)

// freeAddr picks a free loopback port by binding and closing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startChild execs the server on a fresh loopback port. args must not
// contain -addr. The log file is appended to, so one file holds every boot of
// a run.
func startChild(bin string, args []string, logPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the bench dies without running its deferred reaping (SIGKILL), the
	// kernel takes the child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitReady polls /readyz until it answers 200 and returns the time since
// exec. It fails at once if the child exits first.
func (c *child) waitReady(timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	url := "http://" + c.addr + "/readyz"
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		select {
		case <-c.exited:
			return 0, fmt.Errorf("server exited before ready: %v", c.waitErr)
		default:
		}
		if time.Since(c.started) > timeout {
			return 0, fmt.Errorf("server not ready after %s", timeout)
		}
		// Tight polling while a -load boot is plausible, relaxed once the
		// child is evidently training.
		if time.Since(c.started) < 5*time.Second {
			time.Sleep(2 * time.Millisecond)
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// stop drains the child with SIGTERM and escalates to SIGKILL when it has
// not exited after the server's own drain timeout plus a margin. It returns
// an error when the child did not exit cleanly. stop is idempotent.
func (c *child) stop() error {
	return c.end(syscall.SIGTERM)
}

// kill ends the child with SIGKILL, as a crash would.
func (c *child) kill() {
	_ = c.end(syscall.SIGKILL)
}

func (c *child) end(sig syscall.Signal) error {
	childMu.Lock()
	_, live := children[c]
	delete(children, c)
	childMu.Unlock()
	if !live {
		return nil
	}
	defer c.log.Close()
	_ = c.cmd.Process.Signal(sig)
	select {
	case <-c.exited:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return errors.New("server ignored SIGTERM for 15s; killed")
	}
	if sig == syscall.SIGTERM && c.waitErr != nil {
		return fmt.Errorf("server exit after SIGTERM: %v", c.waitErr)
	}
	return nil
}

// reapAll kills whatever children are still alive. main defers it.
func reapAll() {
	childMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// procUsage reads a process's cumulative CPU time and peak resident set from
// /proc ("self" for the bench's own).
func procUsage(pid string) (cpu time.Duration, peakMB float64, err error) {
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks of 10ms.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%s/stat times", pid)
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (c *child) pid() string { return strconv.Itoa(c.cmd.Process.Pid) }

// logTail returns the last n lines of a log file, for failure reports.
func logTail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
