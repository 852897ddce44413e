package obs

// Snapshot arithmetic: a harness measures a bounded window of a live system
// (bench.OverloadSweep, for one) by snapshotting the registry at the window
// edges and diffing.
// Counters and histograms subtract (the window's activity); gauges keep the
// after-value (an instantaneous reading has no meaningful delta).

// DeltaSnapshot returns after-minus-before, metric by metric. Metrics only
// present in after pass through unchanged (they were registered inside the
// window, so their whole state is window activity). Metrics only present in
// before are dropped. Counter and histogram subtraction clamps at zero so a
// racing writer can never produce a negative window.
func DeltaSnapshot(before, after []MetricSnapshot) []MetricSnapshot {
	prev := make(map[string]MetricSnapshot, len(before))
	for _, m := range before {
		prev[m.Name] = m
	}
	out := make([]MetricSnapshot, 0, len(after))
	for _, m := range after {
		b, ok := prev[m.Name]
		if !ok || m.Kind == "gauge" {
			out = append(out, m)
			continue
		}
		switch m.Kind {
		case "counter":
			m.Value = subClamp(m.Value, b.Value)
		case "histogram":
			if m.Hist != nil && b.Hist != nil {
				d := subHist(*m.Hist, *b.Hist)
				m.Hist = &d
				m.Value = float64(d.Count)
			}
		}
		out = append(out, m)
	}
	return out
}

func subClamp(a, b float64) float64 {
	if a <= b {
		return 0
	}
	return a - b
}

// subHist subtracts b from a bucket by bucket, clamping at zero.
func subHist(a, b HistSnapshot) HistSnapshot {
	d := HistSnapshot{IsTime: a.IsTime}
	if a.Count > b.Count {
		d.Count = a.Count - b.Count
	}
	if a.Sum > b.Sum {
		d.Sum = a.Sum - b.Sum
	}
	for i := range a.Buckets {
		if a.Buckets[i] > b.Buckets[i] {
			d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
		}
	}
	return d
}

// FindSnapshot looks a metric up by full name (including inline labels) in a
// snapshot slice.
func FindSnapshot(snaps []MetricSnapshot, name string) (MetricSnapshot, bool) {
	for _, m := range snaps {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// SumCounters sums every counter whose base name (labels stripped) equals
// base — the cross-node total when per-node series carry {node="i"} labels.
func SumCounters(snaps []MetricSnapshot, base string) float64 {
	var sum float64
	for _, m := range snaps {
		if b, _ := splitName(m.Name); b == base && m.Hist == nil {
			sum += m.Value
		}
	}
	return sum
}
