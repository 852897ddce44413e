package obs

import (
	"strings"
	"testing"
	"time"
)

func TestDeltaSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.LatencyHistogram("h_seconds", "")

	c.Add(10)
	g.Set(5)
	h.ObserveDuration(time.Millisecond)
	h.ObserveDuration(2 * time.Millisecond)
	before := reg.Snapshot()

	c.Add(7)
	g.Set(9)
	h.ObserveDuration(40 * time.Millisecond)
	// A metric born inside the window passes through whole.
	reg.Counter("late_total", "").Add(3)
	after := reg.Snapshot()

	d := DeltaSnapshot(before, after)
	if m, ok := FindSnapshot(d, "c_total"); !ok || m.Value != 7 {
		t.Fatalf("counter delta = %v, want 7", m.Value)
	}
	if m, ok := FindSnapshot(d, "g"); !ok || m.Value != 9 {
		t.Fatalf("gauge delta keeps after-value, got %v want 9", m.Value)
	}
	if m, ok := FindSnapshot(d, "late_total"); !ok || m.Value != 3 {
		t.Fatalf("late counter = %v, want 3", m.Value)
	}
	m, ok := FindSnapshot(d, "h_seconds")
	if !ok || m.Hist == nil || m.Hist.Count != 1 {
		t.Fatalf("hist delta count = %+v, want 1 observation", m.Hist)
	}
	// The one windowed observation was 40ms; the delta quantile must land in
	// its log2 bucket, far above the 1–2ms warmup observations.
	if p := m.Hist.QuantileDuration(0.5); p < 16*time.Millisecond || p > 128*time.Millisecond {
		t.Fatalf("delta p50 = %v, want ~40ms bucket", p)
	}
}

func TestDeltaSnapshotClampsRacingWriters(t *testing.T) {
	// A "before" taken after "after" (simulating counter reads racing) must
	// clamp, never go negative.
	a := []MetricSnapshot{{Name: "c_total", Kind: "counter", Value: 5}}
	b := []MetricSnapshot{{Name: "c_total", Kind: "counter", Value: 3}}
	d := DeltaSnapshot(a, b)
	if d[0].Value != 0 {
		t.Fatalf("clamped delta = %v, want 0", d[0].Value)
	}
}

func TestSumCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`ev_total{node="0"}`, "").Add(4)
	reg.Counter(`ev_total{node="1"}`, "").Add(6)
	reg.Counter("unrelated_total", "").Add(99)
	if got := SumCounters(reg.Snapshot(), "ev_total"); got != 10 {
		t.Fatalf("SumCounters = %v, want 10", got)
	}
}

func TestRegisterBuildInfoIdempotent(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	RegisterBuildInfo(reg)
	found := 0
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "aim_build_info{") {
			found++
			if m.Value != 1 {
				t.Fatalf("aim_build_info = %v, want 1", m.Value)
			}
			if !strings.Contains(m.Name, `go_version="`) || !strings.Contains(m.Name, `git_sha="`) {
				t.Fatalf("aim_build_info labels missing: %s", m.Name)
			}
		}
	}
	if found != 1 {
		t.Fatalf("aim_build_info series count = %d, want 1", found)
	}
	up, ok := reg.Find("aim_process_uptime_seconds")
	if !ok || up.Value < 0 {
		t.Fatalf("uptime gauge: found=%v value=%v", ok, up.Value)
	}
	// Double registration must not double the uptime value (GaugeFunc sums
	// its callbacks; RegisterBuildInfo must have added exactly one).
	time.Sleep(10 * time.Millisecond)
	up2, _ := reg.Find("aim_process_uptime_seconds")
	if up2.Value > 2*time.Since(procStart).Seconds() {
		t.Fatalf("uptime %v looks double-registered", up2.Value)
	}
}
