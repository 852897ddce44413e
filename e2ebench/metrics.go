package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json; the test checks the two
// lists below against that file.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees. failed_frac is not here: the
// benchmark contract wants metrics that are never 0, so failures travel as
// the attempted/failed counts of every result instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"esp_events_per_s", "1/s"},
	{"esp_lat_p50_ms", "ms"},
	{"esp_lat_p99_ms", "ms"},
	{"rta_qps", "1/s"},
	{"rta_lat_p50_ms", "ms"},
	{"rta_lat_p95_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p90_ms", "ms"},
	{"server_rss_mb", "MB"},
}

// perLayer is every single-layer metric, in README table order. Source tags:
// T = harness span, P = in-process probe, S = /stats delta, O = OS.
var perLayer = []metricDef{
	{"gen.late_p95_ms", "ms"},
	{"gen.cpu_s", "s"},
	{"proc.server_cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"event.codec_ns_per_event", "ns"},
	{"netproto.event_flush_us", "us"},
	{"netproto.query_call_us", "us"},
	{"netproto.sync_rtt_us", "us"},
	{"netproto.events_per_frame", "count"},
	{"netproto.bytes_per_event", "B"},
	{"cluster.route_ns_per_event", "ns"},
	{"cluster.spilled_events", "count"},
	{"core.apply_ns_per_event", "ns"},
	{"core.node_events_per_s", "1/s"},
	{"core.merge_ns_per_record", "ns"},
	{"core.events_applied", "count"},
	{"core.queries_served", "count"},
	{"core.merged_records", "count"},
	{"core.scan_rounds", "count"},
	{"core.queries_per_round", "count"},
	{"core.coalesced_put_frac", "frac"},
	{"core.fresh_p95_ms", "ms"},
	{"core.recover_s", "s"},
	{"schema.ingest_ns_per_event", "ns"},
	{"schema.materialize_ns_per_event", "ns"},
	{"rules.eval_ns_per_event", "ns"},
	{"rules.firings_per_kevent", "count"},
	{"delta.put_ns", "ns"},
	{"delta.get_ns", "ns"},
	{"columnmap.upsert_ns_per_record", "ns"},
	{"columnmap.gather_ns_per_record", "ns"},
	{"columnmap.freeze_us_per_bucket", "us"},
	{"columnmap.cold_frac", "frac"},
	{"columnmap.compression_ratio", "ratio"},
	{"columnmap.freezes", "count"},
	{"columnmap.thaws", "count"},
	{"vec.cmp_ns_per_kvalue", "ns"},
	{"vec.agg_ns_per_kvalue", "ns"},
	{"vec.chunk_cmp_ns_per_kvalue", "ns"},
	{"vec.chunk_agg_ns_per_kvalue", "ns"},
	{"query.compile_us_per_batch", "us"},
	{"query.scan_ns_per_record_b1", "ns"},
	{"query.scan_ns_per_record_b8", "ns"},
	{"query.preds_saved_frac", "frac"},
	{"query.partial_codec_us", "us"},
	{"rta.gather_us", "us"},
	{"archive.append_ns_per_event", "ns"},
	{"archive.bytes_per_event", "B"},
	{"archive.fsyncs", "count"},
	{"archive.replay_events_per_s", "1/s"},
	{"checkpoint.write_mb_per_s", "MB/s"},
	{"checkpoint.load_mb_per_s", "MB/s"},
	{"checkpoint.runs", "count"},
}

// metricValue is one reported number. Values keep every digit measured.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name against a definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	absent []string // per-layer series the server did not export
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

// setIf records v when ok, else lists the metric as absent. The driver
// wants every per-layer name on every run, so an absent series still
// prints — as 0, with its name in the result file's "absent" list.
func (m *metricSet) setIf(name string, v float64, ok bool) {
	if !ok {
		m.absent = append(m.absent, name)
		v = 0
	}
	m.set(name, v)
}

func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (exclusive method), which is what the driver's spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// sliceUp cuts a window's samples into one-second slices by completion time.
// The end-to-end metrics are built from slices so that one run measures the
// typical second several times over and a one-off stall — the base
// checkpoint parks the ESP thread for about a second once per window — does
// not decide the result. Samples completing after the window count toward
// its last slice.
func sliceUp(ss []sample, window time.Duration) [][]sample {
	n := int(window / time.Second)
	if n < 2 {
		n = 2
	}
	out := make([][]sample, n)
	for _, s := range ss {
		i := int(int64(s.at) * int64(n) / int64(window))
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], s)
	}
	return out
}

// calmShare is the share of a window's slices a latency percentile is
// averaged over, and minSliceSamples the fewest samples a slice needs for
// its percentile to count.
const (
	calmShare       = 0.7
	minSliceSamples = 5
)

// calmQuantile is the mean, over the window's calmest slices, of each
// slice's q-quantile latency in ms: the slices are ranked by that quantile
// (one with too few samples — nothing completed during a stall — ranks
// worst) and the best calmShare of them are averaged. A 1.6 s stall and the
// second of catching up after it touch three slices of ten; dropping the
// three worst and averaging seven estimates spread least of the estimators
// tried on recorded runs (README, "Why one-second slices").
func calmQuantile(ss []sample, window time.Duration, q float64) float64 {
	sl := sliceUp(ss, window)
	var per []float64
	for _, s := range sl {
		if len(s) >= minSliceSamples {
			per = append(per, quantile(latencies(s), q))
		}
	}
	if len(per) == 0 {
		return quantile(latencies(ss), q)
	}
	sort.Float64s(per)
	if keep := int(math.Ceil(calmShare * float64(len(sl)))); keep < len(per) {
		per = per[:keep]
	}
	sum := 0.0
	for _, v := range per {
		sum += v
	}
	return sum / float64(len(per))
}

// slicedRate is the median over slices of the operations completed per
// second in each slice; a sample counts for its n operations. A slice's
// time runs from the last completion of the slice before to its own last
// completion, so the rate is between two instants at which the count is
// known exactly. Completions after the window are not counted.
func slicedRate(ss []sample, window time.Duration) float64 {
	var in []sample
	for _, s := range ss {
		if s.at <= window {
			in = append(in, s)
		}
	}
	var per []float64
	var prevEnd time.Duration
	for _, s := range sliceUp(in, window) {
		if len(s) == 0 {
			per = append(per, 0)
			continue
		}
		ops, end := 0, prevEnd
		for _, x := range s {
			ops += x.n
			if x.at > end {
				end = x.at
			}
		}
		if end > prevEnd {
			per = append(per, float64(ops)/(end-prevEnd).Seconds())
		}
		prevEnd = end
	}
	return median(per)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}
