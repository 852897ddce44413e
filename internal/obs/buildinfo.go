package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// procStart anchors the process uptime gauge.
var procStart = time.Now()

var (
	buildOnce sync.Once
	goVersion string
	gitSHA    string
	gitDirty  bool
)

func loadBuildInfo() {
	buildOnce.Do(func() {
		goVersion = runtime.Version()
		gitSHA = "unknown"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				gitSHA = s.Value
			case "vcs.modified":
				gitDirty = s.Value == "true"
			}
		}
	})
}

// GoVersion returns the toolchain version baked into this binary.
func GoVersion() string {
	loadBuildInfo()
	return goVersion
}

// GitSHA returns the VCS revision baked into this binary ("unknown" when the
// build carried no VCS stamp, e.g. `go test` binaries), with a "-dirty"
// suffix when the working tree was modified.
func GitSHA() string {
	loadBuildInfo()
	if gitDirty {
		return gitSHA + "-dirty"
	}
	return gitSHA
}

// registerMu serializes RegisterBuildInfo so the uptime GaugeFunc (whose
// registration appends callbacks rather than deduplicating) is added at most
// once per registry.
var registerMu sync.Mutex

// RegisterBuildInfo registers the build-identity and process-liveness
// metrics on reg: the conventional aim_build_info gauge (constant 1, with
// the identity in its labels) and aim_process_uptime_seconds. Idempotent per
// registry; obs.Serve calls it so every debug endpoint exposes them. Nil-safe.
func RegisterBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	registerMu.Lock()
	defer registerMu.Unlock()
	name := fmt.Sprintf(`aim_build_info{go_version=%q,git_sha=%q}`, GoVersion(), GitSHA())
	reg.Gauge(name, "Build identity: constant 1, the identity lives in the labels.").Set(1)
	if _, ok := reg.Find("aim_process_uptime_seconds"); !ok {
		reg.GaugeFunc("aim_process_uptime_seconds",
			"Seconds since this process started.",
			func() float64 { return time.Since(procStart).Seconds() })
	}
}
