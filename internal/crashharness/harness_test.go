package crashharness

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/schema"
	"repro/internal/workload"
)

// entities is the caller-id universe the workload touches; verification
// compares every one of them.
const entities = 32

// buildServer compiles aimserver once for the whole test binary.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aimserver")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/aimserver")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build aimserver: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// server wraps one aimserver child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait result
}

// startServer launches aimserver on an ephemeral port and waits until it
// accepts traffic. crashSpec, when non-empty, arms AIM_CRASHPOINTS in the
// child. extra appends flags.
func startServer(t *testing.T, bin, dataDir, crashSpec string, extra ...string) (*server, error) {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-stats", "0",
		"-rules", "0",
		"-partitions", "2",
		"-recover", "auto",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), crashpoint.EnvVar+"="+crashSpec)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	errLines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		var lastLines []string
		for sc.Scan() {
			line := sc.Text()
			lastLines = append(lastLines, line)
			if len(lastLines) > 12 {
				lastLines = lastLines[1:]
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		errLines <- strings.Join(lastLines, "\n")
	}()
	go func() { s.done <- cmd.Wait() }()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("server exited before listening:\n%s", <-errLines)
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("server did not start listening")
	}
}

// waitExit blocks until the child exits, force-killing at the deadline, and
// returns its exit code (crashpoint.ExitCode, -1 for signals, ...).
func (s *server) waitExit(deadline time.Duration) int {
	select {
	case <-s.done:
	case <-time.After(deadline):
		s.cmd.Process.Kill()
		<-s.done
	}
	return s.cmd.ProcessState.ExitCode()
}

func (s *server) sigkill() {
	s.cmd.Process.Kill()
	<-s.done
}

func (s *server) sigterm(t *testing.T) {
	t.Helper()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		t.Error("server ignored SIGTERM")
	}
}

// mkEvent generates the i-th deterministic workload event.
func mkEvent(i int) event.Event {
	return event.Event{
		Caller:       uint64(i%entities) + 1,
		Callee:       uint64(i%7) + 1,
		Timestamp:    int64(i),
		Duration:     int64(i%120) + 1,
		Cost:         float64(i%50) / 10,
		LongDistance: i%3 == 0,
	}
}

// ingest pumps events at the server until stop is set or delivery starts
// failing (the child died). Returns how many events were sent.
func ingest(cli *netproto.Client, stop *atomic.Bool) int {
	sent := 0
	for i := 0; !stop.Load(); i++ {
		if err := cli.ProcessEventAsync(mkEvent(i)); err != nil {
			// The child is dying mid-crash — expected.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		sent++
	}
	return sent
}

// referenceState replays the (salvaged) archive synchronously through a
// fresh in-process node and returns every entity's record. The wal
// directory must be a private copy: salvage repairs in place.
func referenceState(t *testing.T, walCopy string) map[uint64]schema.Record {
	t.Helper()
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	dims, err := workload.BuildDimensions(42) // aimserver's default seed
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.Open(walCopy, archive.Options{Recovery: archive.Salvage})
	if err != nil {
		t.Fatalf("reference archive open: %v", err)
	}
	defer arch.Close()
	node, err := core.NewNode(core.Config{
		Schema: sch, Dims: dims.Store, Partitions: 2, BucketSize: 256,
		Factory: dims.Factory(sch),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	err = arch.Replay(0, func(_ uint64, ev event.Event) error {
		return node.ProcessEventAsync(ev)
	})
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	if err := node.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]schema.Record)
	for e := uint64(1); e <= entities; e++ {
		rec, _, ok, err := node.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out[e] = rec
		}
	}
	return out
}

// copyDir copies every regular file under src into dst (flat tree: the wal
// directory has no subdirectories).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compareStates asserts the recovered server's matrix matches the reference
// record for record, ignoring the version slot (version counters restart
// with recovery; they are bookkeeping, not state).
func compareStates(t *testing.T, iter int, cli *netproto.Client, ref map[uint64]schema.Record) {
	t.Helper()
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= entities; e++ {
		got, _, ok, err := cli.Get(e)
		if err != nil {
			t.Fatalf("iter %d: get entity %d: %v", iter, e, err)
		}
		want, wantOK := ref[e]
		if ok != wantOK {
			t.Errorf("iter %d: entity %d present=%v, reference=%v", iter, e, ok, wantOK)
			continue
		}
		if !ok {
			continue
		}
		for s := 0; s < sch.Slots; s++ {
			if s == sch.VersionSlot {
				continue
			}
			if got[s] != want[s] {
				t.Errorf("iter %d: entity %d slot %d: recovered %#x, reference %#x",
					iter, e, s, got[s], want[s])
				break
			}
		}
	}
}

// killTally counts, per armed kill point, the iterations whose child died
// at that point (exit crashpoint.ExitCode) and those the harness killed at
// its deadline because the workload never reached it. A point whose
// iterations all fall back is a point the campaign does not exercise.
type killTally map[string]*[2]int

// add records one armed iteration's outcome; spec is "point:count".
func (k killTally) add(spec string, exitCode int) {
	p, _, _ := strings.Cut(spec, ":")
	if k[p] == nil {
		k[p] = new([2]int)
	}
	if exitCode == crashpoint.ExitCode {
		k[p][0]++
	} else {
		k[p][1]++
	}
}

// log reports the tally in Points() order.
func (k killTally) log(t *testing.T) {
	t.Helper()
	for _, p := range crashpoint.Points() {
		if c := k[p]; c != nil {
			t.Logf("kill point %-30s fired %2d, deadline fallback %2d", p, c[0], c[1])
		}
	}
}

// fsyncFor returns the extra flag an iteration armed at spec needs for its
// point to be reachable: archive.append.before-sync sits on the per-append
// fsync path, which only -fsync takes.
func fsyncFor(spec string) []string {
	if strings.HasPrefix(spec, crashpoint.ArchiveAppendBeforeSync+":") {
		return []string{"-fsync"}
	}
	return nil
}

// TestCrashRecoveryRandomKillPoints is the crash-injection campaign: each
// iteration runs a live ingest+checkpoint workload, kills the server at a
// random crashpoint (or a random wall-clock instant), restarts it with
// -recover auto, and verifies the recovered matrix against a synchronous
// replay of the salvaged archive. A tiered child can hit its kill point
// before it listens or before the harness dials it; nothing was ingested
// then, and the same recovery and record-for-record check run on whatever
// its salvaged WAL holds. AIM_CRASH_KILLS sets the iteration count (default
// 8 so plain `go test` stays fast; `make crash` runs 100).
func TestCrashRecoveryRandomKillPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short")
	}
	iters := 8
	if v := os.Getenv("AIM_CRASH_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad AIM_CRASH_KILLS %q", v)
		}
		iters = n
	}
	seed := time.Now().UnixNano()
	if v := os.Getenv("AIM_CRASH_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad AIM_CRASH_SEED %q", v)
		}
		seed = n
	}
	t.Logf("crash campaign: %d iterations, seed %d (rerun with AIM_CRASH_SEED=%d)", iters, seed, seed)
	rng := rand.New(rand.NewSource(seed))
	bin := buildServer(t)
	points := crashpoint.Points()
	tally := killTally{}
	defer tally.log(t)

	for iter := 0; iter < iters; iter++ {
		iterDir := filepath.Join(t.TempDir(), fmt.Sprintf("it%03d", iter))
		dataDir := filepath.Join(iterDir, "data")

		// Half the iterations run the tiered main with eager freezing and a
		// tiny bucket (32 entities fill several 8-record buckets per
		// partition), so deaths land mid-freeze/thaw churn and the
		// core.bucket-freeze point is actually reachable.
		tiered := iter%2 == 0

		// Pick how this process dies: 1 in 4 iterations use a raw SIGKILL
		// at a random instant; the rest arm one random crashpoint with a
		// random countdown. Flat iterations never arm the freeze point —
		// it can't fire without -bucket-freeze, and the 4s fallback kill
		// would just slow the campaign down.
		spec := ""
		if iter%4 != 3 {
			p := points[rng.Intn(len(points))]
			for !tiered && p == crashpoint.CoreBucketFreeze {
				p = points[rng.Intn(len(points))]
			}
			spec = fmt.Sprintf("%s:%d", p, 1+rng.Intn(60))
		}

		extra := []string{"-checkpoint-every", "25ms", "-base-every", "3", "-checkpoint-gc=false"}
		extra = append(extra, fsyncFor(spec)...)
		if tiered {
			extra = append(extra, "-bucket", "8", "-bucket-freeze", "-cold-after", "0")
		}
		sch, err := workload.BuildSmallSchema()
		if err != nil {
			t.Fatal(err)
		}
		srv, err := startServer(t, bin, dataDir, spec, extra...)
		var cli *netproto.Client
		var exitCode int
		if err == nil {
			cli, err = netproto.DialConfig(srv.addr, sch, netproto.ClientConfig{
				CallTimeout: 2 * time.Second, MaxRetries: -1, DisableReconnect: true,
			})
			if err != nil {
				if exitCode = srv.waitExit(4 * time.Second); exitCode != crashpoint.ExitCode {
					t.Fatalf("iter %d (spec %q): dial: %v", iter, spec, err)
				}
			}
		} else if strings.Contains(err.Error(), "crashpoint: killing process") {
			exitCode = crashpoint.ExitCode
		} else {
			t.Fatalf("iter %d (spec %q): %v", iter, spec, err)
		}

		sent := 0
		if cli == nil {
			// Killed at its armed point before any client connected: nothing
			// was ingested, and recovery must rebuild exactly what the
			// salvaged WAL holds.
			t.Logf("iter %d (spec %q): server killed before any client connected; checking recovery of its salvaged WAL", iter, spec)
		} else {
			var stop atomic.Bool
			sentCh := make(chan int, 1)
			go func() { sentCh <- ingest(cli, &stop) }()
			if spec == "" {
				// Timed kill: let ingest+checkpoints run, then pull the plug.
				time.Sleep(time.Duration(150+rng.Intn(600)) * time.Millisecond)
				srv.sigkill()
				exitCode = -1
			} else {
				// Wait for the armed point to fire; if the workload never
				// reaches it, fall back to a hard kill at the deadline.
				exitCode = srv.waitExit(4 * time.Second)
			}
			stop.Store(true)
			sent = <-sentCh
			cli.Close()
		}
		if exitCode == 0 {
			t.Fatalf("iter %d (spec %q): server exited cleanly mid-campaign", iter, spec)
		}
		if spec != "" {
			tally.add(spec, exitCode)
		}

		// Reference: salvage + synchronously replay a private copy of the
		// archive as it was at the moment of death.
		refWal := filepath.Join(iterDir, "refwal")
		copyDir(t, filepath.Join(dataDir, "wal"), refWal)
		ref := referenceState(t, refWal)

		// Restart on the same data directory and verify. Tiered iterations
		// restart tiered too: recovery rehydrates every bucket hot, then the
		// idle merge loop re-freezes them, so the reads below cross the
		// compressed path.
		restart := []string{"-checkpoint-every", "0"}
		if tiered {
			restart = append(restart, "-bucket", "8", "-bucket-freeze", "-cold-after", "0")
		}
		srv2, err := startServer(t, bin, dataDir, "", restart...)
		if err != nil {
			t.Fatalf("iter %d (spec %q, exit %d, %d events sent): recovery failed: %v",
				iter, spec, exitCode, sent, err)
		}
		cli2, err := netproto.Dial(srv2.addr, sch)
		if err != nil {
			t.Fatalf("iter %d: dial recovered: %v", iter, err)
		}
		compareStates(t, iter, cli2, ref)
		cli2.Close()
		srv2.sigterm(t)
		if t.Failed() {
			t.Fatalf("iter %d (spec %q, exit %d, %d events sent): matrix mismatch", iter, spec, exitCode, sent)
		}
		if err := os.RemoveAll(iterDir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGracefulShutdownPreservesEverything is the satellite check for the
// SIGTERM path: a drained shutdown must lose nothing, and the restart must
// come back Strict-clean with a zero-length replay surprise budget.
func TestGracefulShutdownPreservesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process test skipped in -short")
	}
	bin := buildServer(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	srv, err := startServer(t, bin, dataDir, "", "-checkpoint-every", "50ms", "-base-every", "2")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := netproto.Dial(srv.addr, sch)
	if err != nil {
		t.Fatal(err)
	}
	const events = 5000
	for i := 0; i < events; i++ {
		if err := cli.ProcessEventAsync(mkEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	srv.sigterm(t)

	refWal := filepath.Join(t.TempDir(), "refwal")
	copyDir(t, filepath.Join(dataDir, "wal"), refWal)
	ref := referenceState(t, refWal)

	srv2, err := startServer(t, bin, dataDir, "", "-checkpoint-every", "0", "-recover", "strict")
	if err != nil {
		t.Fatalf("strict recovery after graceful shutdown failed: %v", err)
	}
	cli2, err := netproto.Dial(srv2.addr, sch)
	if err != nil {
		t.Fatal(err)
	}
	compareStates(t, 0, cli2, ref)
	cli2.Close()
	srv2.sigterm(t)
}
