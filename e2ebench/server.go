package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Coupling surface, aimserver flags: -addr -partitions -esp -rules -stats
// -debug-addr -data-dir -fsync -full -bucket -bucket-freeze -cold-after.
// Everything else runs at the server's defaults (checkpoint every 10 s,
// shared-scan batch cap 8, rule seed 42).

// flushPolicy is stated in every result file: both sides of a comparison
// must have run under the same one.
const flushPolicy = "WAL on (where the workload has -data-dir), -fsync=false (OS page cache, no per-append fsync), default checkpoint cadence 10s"

// repoRoot finds the checkout root from the working directory, which is the
// root itself (the driver, run.sh) or e2ebench/ (go run -C e2ebench, go test).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "aimserver", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/aimserver not found from %s: run from the repository root or e2ebench/", wd)
}

// buildDir holds everything the benchmark writes: binaries, Go caches (when
// run.sh points them here), per-run server data dirs.
func buildDir(root string) string { return filepath.Join(root, "e2ebench", ".build") }

// buildServer compiles cmd/aimserver and returns the binary path and the
// compile time, which is printed on its own and never part of setup_s.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir(root), "bin", "aimserver")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aimserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/aimserver: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// cleanup tracks live children and temp dirs so every exit path — return,
// failed check, SIGINT — kills and removes them.
type cleanup struct {
	mu    sync.Mutex
	procs map[*server]struct{}
	dirs  map[string]struct{}
}

var janitor = &cleanup{procs: map[*server]struct{}{}, dirs: map[string]struct{}{}}

func (c *cleanup) run() {
	c.mu.Lock()
	procs, dirs := c.procs, c.dirs
	c.procs, c.dirs = map[*server]struct{}{}, map[string]struct{}{}
	c.mu.Unlock()
	for s := range procs {
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	for d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// server is one aimserver child.
type server struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	dataDir   string // "" = in-memory
	flagLine  string
	startedAt time.Time
	logPath   string
	exited    chan struct{} // closed once the child has been reaped
}

// freePorts picks n distinct free loopback ports by binding and releasing.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	var out []string
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// newRunDir creates a fresh per-run scratch dir under the build dir.
func newRunDir(root string) (string, error) {
	base := filepath.Join(buildDir(root), "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("%d-", os.Getpid()))
	if err != nil {
		return "", err
	}
	janitor.mu.Lock()
	janitor.dirs[dir] = struct{}{}
	janitor.mu.Unlock()
	return dir, nil
}

func removeRunDir(dir string) {
	_ = os.RemoveAll(dir)
	janitor.mu.Lock()
	delete(janitor.dirs, dir)
	janitor.mu.Unlock()
}

// serverArgs is the exact flag line for a workload (minus the per-run ports
// and data dir, which are appended by startServer).
func serverArgs(w spec) []string {
	args := []string{"-partitions", "2", "-esp", "1", "-rules", "300", "-stats", "0"}
	if w.Full {
		args = append(args, "-full")
	}
	return append(args, w.Flags...)
}

// startServer execs aimserver on fresh ports and waits until it accepts
// connections. dataDir "" runs it in memory.
func startServer(bin string, w spec, runDir, dataDir string) (*server, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	args := append(serverArgs(w), "-addr", ports[0], "-debug-addr", ports[1])
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync=false")
	}
	logPath := filepath.Join(runDir, "aimserver.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	s := &server{
		cmd: cmd, addr: ports[0], debugAddr: ports[1], dataDir: dataDir,
		flagLine: "aimserver " + strings.Join(args, " "), logPath: logPath,
		startedAt: time.Now(), exited: make(chan struct{}),
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	janitor.mu.Lock()
	janitor.procs[s] = struct{}{}
	janitor.mu.Unlock()
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", s.addr, time.Second)
		if err == nil {
			c.Close()
			return s, nil
		}
		if time.Now().After(deadline) || !s.alive() {
			logs, _ := os.ReadFile(logPath)
			s.kill()
			return nil, fmt.Errorf("aimserver did not start listening: %v\n%s", err, logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the child and waits until it has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	janitor.mu.Lock()
	delete(janitor.procs, s)
	janitor.mu.Unlock()
}

// stats is one scrape of the server's /stats: scalar series by name, and
// histogram series reduced to count/sum/p95.
type stats struct {
	scalar map[string]float64
	hist   map[string]histStat
}

type histStat struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	P95   float64 `json:"p95"`
}

func (s *server) scrape() (*stats, error) {
	resp, err := http.Get("http://" + s.debugAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	st := &stats{scalar: map[string]float64{}, hist: map[string]histStat{}}
	for name, msg := range raw {
		var v float64
		if json.Unmarshal(msg, &v) == nil {
			st.scalar[name] = v
			continue
		}
		var h histStat
		if json.Unmarshal(msg, &h) == nil {
			st.hist[name] = h
		}
	}
	return st, nil
}

// statDelta returns after[name]-before[name]; ok is false when the series is
// missing from either scrape (reported absent, never as zero).
func statDelta(before, after *stats, name string) (float64, bool) {
	b, ok1 := before.scalar[name]
	a, ok2 := after.scalar[name]
	return a - b, ok1 && ok2
}

// procCPU returns the process's user+system CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	const clkTck = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clkTck, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}
