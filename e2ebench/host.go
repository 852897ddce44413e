package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord says where and from what a result was measured. The git sha
// comes from `git rev-parse`, never from build info: under `go run` build
// info has no VCS stamp, which is why older baselines say "unknown".
type hostRecord struct {
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	GoVersion   string `json:"go_version"`
	GenMaxProcs int    `json:"generator_gomaxprocs"`
	SrvMaxProcs int    `json:"server_gomaxprocs"`
	GitSHA      string `json:"git_sha"`
	GitDirty    bool   `json:"git_dirty"`
}

func readHost(root string) hostRecord {
	h := hostRecord{
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GenMaxProcs: runtime.GOMAXPROCS(0),
		SrvMaxProcs: 2,
		CPUModel:    "unknown",
		Kernel:      "unknown",
		// The driver's checkout is not a git repository; say so plainly.
		GitSHA: "not-a-git-checkout",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		// Never resolve to a repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "HEAD"); err == nil && sha != "" {
		h.GitSHA = sha
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			h.GitDirty = st != ""
		}
	}
	return h
}
