package repl

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/event"
	"repro/internal/obs"
)

// TestFollowerMetricsExposition pins the PR 7 replication gauges to the
// Prometheus surface: a live follower's lag/staleness/reconnect series must
// appear on obs.Serve's /metrics exposition (not just in the registry), so
// follower observability can't silently drop out of scrapes.
func TestFollowerMetricsExposition(t *testing.T) {
	parch := openArchive(t, archive.Options{SegmentEvents: 16})
	fnode := newNode(t, nil)
	reg := obs.NewRegistry()

	var sourceFailures int
	f := NewFollower(fnode, 0, FollowerConfig{
		Metrics:       reg,
		Label:         "exp0",
		ReopenBackoff: time.Millisecond,
		Reopen: func(fromLSN uint64) (Source, error) {
			return NewArchiveSource(parch, fromLSN, ArchiveSourceConfig{Heartbeat: 2 * time.Millisecond}), nil
		},
	})
	// First source dies immediately so the reconnect counter moves.
	dying := NewArchiveSource(parch, 0, ArchiveSourceConfig{Heartbeat: 2 * time.Millisecond})
	if err := f.Start(dying); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	dying.Close()
	sourceFailures++

	const total = 40
	for i := 0; i < total; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower catch-up", func() bool { return f.AppliedLSN() == total })

	srv, err := obs.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every follower series from PR 7, by exact exposed name.
	mustContain := []string{
		`aim_repl_lag_events{follower="exp0"}`,
		`aim_repl_lag_seconds{follower="exp0"}`,
		`aim_repl_staleness_seconds_bucket{follower="exp0",le="+Inf"}`,
		fmt.Sprintf(`aim_repl_staleness_seconds_count{follower="exp0"} %d`, countBatches(body)),
		`aim_repl_batches_total{follower="exp0"}`,
		fmt.Sprintf(`aim_repl_events_total{follower="exp0"} %d`, total),
		fmt.Sprintf(`aim_repl_reconnects_total{follower="exp0"} %d`, sourceFailures),
		// And the build-info/uptime series every Serve endpoint now carries.
		`aim_build_info{`,
		`aim_process_uptime_seconds`,
	}
	for _, want := range mustContain {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("repl series in exposition:\n%s", grepLines(body, "aim_repl_"))
	}
}

// countBatches extracts the follower's applied-batch count from the
// exposition so the staleness histogram count can be cross-checked against
// the batch counter (each applied batch observes once).
func countBatches(body string) int {
	for _, line := range strings.Split(body, "\n") {
		var n int
		if _, err := fmt.Sscanf(line, `aim_repl_batches_total{follower="exp0"} %d`, &n); err == nil {
			return n
		}
	}
	return -1
}

func grepLines(body, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
