// Package crashpoint provides named fault points for crash-injection
// testing of the durability subsystem. A production process never arms any
// point, so every Hit call folds to a single atomic load and an untaken
// branch; the crash harness arms points via the AIM_CRASHPOINTS environment
// variable (or Arm) and the process kills itself — os.Exit, not a panic, so
// no deferred cleanup runs, exactly like a power failure as far as the
// on-disk state is concerned.
//
// Spec syntax (comma separated):
//
//	AIM_CRASHPOINTS="archive.append.torn:3"      // die on the 3rd hit
//	AIM_CRASHPOINTS="checkpoint.close.before-rename"  // die on the 1st hit
//
// Tests inside this module can install a hook instead of dying. Hit returns
// the hook's error, and three call sites propagate it, turning their kill
// point into an error-injection point: archive.append.before-write,
// archive.append.before-sync and archive.rotate.after-create. Every other
// point is kill-only — its call site ignores the hook's error: the torn-write
// points archive.append.torn and archive.append.batch-torn,
// archive.truncate.mid, core.bucket-freeze, and the four checkpoint points.
package crashpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar names the environment variable ArmFromEnv reads.
const EnvVar = "AIM_CRASHPOINTS"

// ExitCode is the status a crashpoint kill exits with, distinguishable from
// ordinary fatal errors (1) and flag misuse (2).
const ExitCode = 86

// The kill points compiled into the durability subsystem. The harness
// iterates Points() to pick random ones; keep this list in sync with the
// Hit call sites.
const (
	ArchiveAppendBeforeWrite    = "archive.append.before-write"
	ArchiveAppendTorn           = "archive.append.torn"       // fires mid-frame: leaves a torn tail
	ArchiveAppendBatchTorn      = "archive.append.batch-torn" // fires mid-last-frame of a group append
	ArchiveAppendBeforeSync     = "archive.append.before-sync"
	ArchiveRotateAfterCreate    = "archive.rotate.after-create"
	ArchiveTruncateMid          = "archive.truncate.mid" // between segment removals during GC
	CheckpointAddRecord         = "checkpoint.add-record"
	CheckpointCloseBeforeSeal   = "checkpoint.close.before-seal" // records flushed, trailer not written
	CheckpointCloseBeforeRename = "checkpoint.close.before-rename"
	CheckpointCloseAfterRename  = "checkpoint.close.after-rename" // published, retention GC not yet run
	CoreBucketFreeze            = "core.bucket-freeze"            // merge step about to freeze cold buckets
)

// Points returns every compiled-in kill point name.
func Points() []string {
	return []string{
		ArchiveAppendBeforeWrite,
		ArchiveAppendTorn,
		ArchiveAppendBatchTorn,
		ArchiveAppendBeforeSync,
		ArchiveRotateAfterCreate,
		ArchiveTruncateMid,
		CheckpointAddRecord,
		CheckpointCloseBeforeSeal,
		CheckpointCloseBeforeRename,
		CheckpointCloseAfterRename,
		CoreBucketFreeze,
	}
}

var (
	armed  atomic.Bool
	mu     sync.Mutex
	points map[string]int          // remaining hits until the point fires
	hook   func(name string) error // test hook; nil = kill the process
)

// Arm installs the given spec ("name[:count],name2[:count2]"). count is the
// 1-based hit that fires (default 1). An empty spec disarms everything.
func Arm(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]int)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		armed.Store(false)
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, count := part, 1
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n < 1 {
				return fmt.Errorf("crashpoint: bad count in %q", part)
			}
			name, count = part[:i], n
		}
		points[name] = count
	}
	armed.Store(len(points) > 0)
	return nil
}

// ArmFromEnv arms from AIM_CRASHPOINTS; a missing/empty variable is a no-op.
func ArmFromEnv() error {
	if spec := os.Getenv(EnvVar); spec != "" {
		return Arm(spec)
	}
	return nil
}

// Disarm clears every armed point and hook.
func Disarm() {
	mu.Lock()
	points = nil
	hook = nil
	armed.Store(false)
	mu.Unlock()
}

// SetHook replaces process death with a callback (for in-process tests).
// The hook runs with no locks held; Hit returns its error.
func SetHook(f func(name string) error) {
	mu.Lock()
	hook = f
	mu.Unlock()
}

// Enabled reports whether any point is armed. Hot paths that need extra
// work to expose a point (e.g. splitting a write in two) gate on it.
func Enabled() bool { return armed.Load() }

// Hit fires the named point if it is armed and its countdown reaches zero,
// returning the hook's error (nil when it does not fire). When disarmed
// (the production state) it costs one atomic load.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	mu.Lock()
	rem, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	rem--
	if rem > 0 {
		points[name] = rem
		mu.Unlock()
		return nil
	}
	delete(points, name)
	if len(points) == 0 && hook == nil {
		armed.Store(false)
	}
	h := hook
	mu.Unlock()
	if h != nil {
		return h(name)
	}
	fmt.Fprintf(os.Stderr, "crashpoint: killing process at %q\n", name)
	os.Exit(ExitCode)
	return nil
}
