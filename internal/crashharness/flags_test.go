package crashharness

import (
	"os/exec"
	"regexp"
	"slices"
	"testing"
)

// serverFlags is aimserver's whole flag surface. It covers every flag the
// e2ebench workloads and the crash campaigns pass, so deleting one of those
// fails here instead of silently breaking a benchmark run.
var serverFlags = []string{
	"addr", "base-every", "bucket", "bucket-freeze", "checkpoint-every",
	"checkpoint-gc", "cold-after", "data-dir", "debug-addr", "esp", "follow",
	"fsync", "full", "overload", "partitions", "recover", "repl-heartbeat",
	"rules", "stats",
}

// TestServerFlagSurface pins the flags `aimserver -h` lists.
func TestServerFlagSurface(t *testing.T) {
	bin := buildServer(t)
	// -h exits with a usage status; the listing is what matters.
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(out, -1) {
		got = append(got, string(m[1]))
	}
	slices.Sort(got)
	if !slices.Equal(got, serverFlags) {
		t.Fatalf("aimserver flags:\ngot  %v\nwant %v\n%s", got, serverFlags, out)
	}
}
