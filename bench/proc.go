package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"relsim/internal/server"
)

// findRoot walks up from the working directory to the relsim module
// root (go run -C bench starts the program inside bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "relsim-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/relsim-serve not found above the working directory: run from a relsim checkout")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/relsim-serve from the checkout into out.
// With a warm build cache this is well under a second; the benchmark
// never measures it.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/relsim-serve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/relsim-serve: %w\n%s", err, b)
	}
	return nil
}

// live tracks every started child and scratch directory so that each
// exit path — return, fatal error, signal — kills and removes them.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
	dirs  map[string]struct{}
}

func cleanupAll() {
	live.Lock()
	procs, dirs := live.procs, live.dirs
	live.procs, live.dirs = nil, nil
	live.Unlock()
	for p := range procs {
		p.kill()
	}
	for d := range dirs {
		os.RemoveAll(d)
	}
}

// scratchDir creates a directory under outDir that cleanupAll removes.
func scratchDir(outDir, prefix string) (string, error) {
	d, err := os.MkdirTemp(outDir, prefix)
	if err != nil {
		return "", err
	}
	live.Lock()
	if live.dirs == nil {
		live.dirs = map[string]struct{}{}
	}
	live.dirs[d] = struct{}{}
	live.Unlock()
	return d, nil
}

func removeScratch(d string) {
	live.Lock()
	delete(live.dirs, d)
	live.Unlock()
	os.RemoveAll(d)
}

// serverProc is one relsim-serve child.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logFile *os.File
	done    chan struct{} // closed when Wait returned
}

// launch starts the server on a free loopback port. Its stderr (the
// access log, one line per request) goes to a file, never a pipe: a
// pipe's reader would share the two cores with the server.
func launch(bin string, flags []string, logPath string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-dataset", "dblp", "-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	p := &serverProc{cmd: cmd, base: "http://" + addr, logFile: logFile, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

// kill sends SIGKILL — the crash the durability check recovers from —
// and waits for the child to be reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.logFile.Close()
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// waitHealthy polls /healthz until the first 200 and returns the
// version it reports.
func (p *serverProc) waitHealthy(c *conn, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return 0, fmt.Errorf("server exited during start-up: %v (see %s)", p.cmd.ProcessState, p.logFile.Name())
		default:
		}
		if res := c.do("GET", "/healthz", nil); res.err == nil && res.status == 200 {
			var h server.HealthzResponse
			if err := json.Unmarshal(res.body, &h); err != nil {
				return 0, fmt.Errorf("healthz: %w", err)
			}
			return h.Version, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server not healthy after %v (see %s)", timeout, p.logFile.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuSeconds returns the child's user+system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatTicks(b)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicksPerSecond, nil
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

// parseStatTicks extracts utime+stime from /proc/<pid>/stat. The comm
// field may itself contain spaces and parentheses, so fields are counted
// from the last ')': utime and stime are the 14th and 15th fields of the
// line, the 12th and 13th after comm.
func parseStatTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// hostTicks returns the machine's stolen and total CPU ticks so far from
// the first line of /proc/stat. Stolen time is what the hypervisor gave
// to other guests while this one wanted to run: the benchmark cannot
// prevent it, but a run measured under it should say so.
func hostTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseHostTicks(line)
}

// parseHostTicks reads "cpu user nice system idle iowait irq softirq
// steal ..."; guest time is already part of user time and is skipped.
func parseHostTicks(line string) (steal, total uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSSMB returns the child's resident-set high-water mark.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseStatusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", key, rest)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
