package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
)

// setupsPerRun is how many times a timed run sets up (server start, preload,
// flush, warmup); setup_s is their median and the last one is measured.
const setupsPerRun = 3

// traceSpanCap bounds the spans written to a trace file; the summary in the
// same file is over all of them.
const traceSpanCap = 500

// runConfig is one run of one workload.
type runConfig struct {
	w       spec
	seed    int64
	seconds int
	trace   bool
	outDir  string // "" = print only
	root    string
	bin     string
	buildS  float64
	quick   bool // self-test: one set-up, no window alignment
}

// result is the JSON file one run writes, and the source of the contract
// line the driver reads.
type result struct {
	Workload    string     `json:"workload"`
	Why         string     `json:"why"`
	Seed        int64      `json:"seed"`
	Seconds     int        `json:"seconds"`
	Trace       bool       `json:"trace"`
	Host        hostRecord `json:"host"`
	ServerFlags string     `json:"server_flags"`
	FlushPolicy string     `json:"flush_policy"`
	BuildS      float64    `json:"build_s"`

	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Samples      map[string]int `json:"samples"`
	SetupsS      []float64      `json:"setups_s,omitempty"`
	ChecksRun    int            `json:"checks_run"`
	ChecksFailed []checkOutcome `json:"checks_failed,omitempty"`
	Absent       []string       `json:"absent,omitempty"`
	Notes        []string       `json:"notes,omitempty"`
	FirstErr     string         `json:"first_error,omitempty"`
}

// live is one set-up server with its client stack and runner.
type live struct {
	srv    *server
	st     *stack
	r      *runner
	runDir string
	warm   *phase
}

func (l *live) teardown() {
	if l.st != nil {
		l.st.close()
		l.st = nil
	}
	if l.srv != nil {
		l.srv.kill()
		l.srv = nil
	}
	removeRunDir(l.runDir)
}

// setUp starts a fresh server, preloads one event per entity in id order,
// flushes, and warms up at the workload's own shape. The returned duration
// is setup_s: server exec to end of warmup, compile time excluded.
func setUp(cfg runConfig, tr *tracer) (l *live, took time.Duration, err error) {
	runDir, err := newRunDir(cfg.root)
	if err != nil {
		return nil, 0, err
	}
	l = &live{runDir: runDir}
	defer func() {
		if err != nil {
			l.teardown()
			l = nil
		}
	}()
	dataDir := ""
	if cfg.w.DataDir {
		dataDir = filepath.Join(runDir, "data")
	}
	sch, err := buildSchema(cfg.w.Full)
	if err != nil {
		return l, 0, err
	}
	t0 := time.Now()
	if l.srv, err = startServer(cfg.bin, cfg.w, runDir, dataDir); err != nil {
		return l, 0, err
	}
	if l.st, err = newStack(l.srv.addr, sch, tr); err != nil {
		return l, 0, err
	}
	if l.r, err = newRunner(cfg.w, l.st, cfg.seed); err != nil {
		return l, 0, err
	}
	if err = l.r.preload(); err != nil {
		return l, 0, fmt.Errorf("preload: %w", err)
	}
	l.warm = l.r.drive(warmup)
	return l, time.Since(t0), nil
}

// windowAt is the server age at which every measured window starts. The
// server's first (full base) checkpoint runs at age 10 s and stalls the ESP
// thread for seconds on the large schemas; starting every window at the same
// age puts that stall at the same offset in every run, with room to recover
// before the window ends. The warmup shape keeps running until then; the
// wait is alignment, not set-up work, and is not part of setup_s.
const windowAt = 6 * time.Second

func alignWindow(res *result, l *live) {
	pad := windowAt - time.Since(l.srv.startedAt)
	if pad <= 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("set-up took %.2f s, past the %v window alignment: the checkpoint stall sits earlier in this window",
			time.Since(l.srv.startedAt).Seconds(), windowAt))
		return
	}
	res.tally(l.r.drive(pad))
}

// selfCPU is this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window is one measured drive with the OS and /stats readings around it.
type window struct {
	ph             *phase
	before, after  *stats
	srvCPU, genCPU float64
}

func measure(l *live, dur time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = l.srv.scrape(); err != nil {
		return nil, fmt.Errorf("scrape /stats: %w", err)
	}
	cpu0, _ := procCPU(l.srv.cmd.Process.Pid)
	gen0 := selfCPU()
	w.ph = l.r.drive(dur)
	cpu1, _ := procCPU(l.srv.cmd.Process.Pid)
	w.srvCPU, w.genCPU = cpu1-cpu0, selfCPU()-gen0
	// After the drive's final flush, so it counts every event sent.
	if w.after, err = l.srv.scrape(); err != nil {
		return nil, fmt.Errorf("scrape /stats: %w", err)
	}
	return w, nil
}

// tally adds a phase's queries, probes and failures to the attempted/failed
// counts; events sent are added once per run, from the runner's counter.
func (res *result) tally(ph *phase) {
	res.Attempted += ph.eventErrs + uint64(len(ph.rta)) + ph.queryErrs + uint64(len(ph.fresh)) + ph.probeErrs
	res.Failed += ph.eventErrs + ph.queryErrs + ph.probeErrs
	if ph.firstErr != nil && res.FirstErr == "" {
		res.FirstErr = ph.firstErr.Error()
	}
}

// endToEndMetrics fills the user-visible metrics from the timed window:
// rates are medians over its one-second slices, latency percentiles are
// taken over its calmest slices (see sliceUp, calmQuantile).
func endToEndMetrics(m *metricSet, res *result, ph *phase, rssMB float64) {
	m.set("esp_events_per_s", slicedRate(ph.esp, ph.dur))
	m.set("esp_lat_p50_ms", calmQuantile(ph.esp, ph.dur, 0.50))
	m.set("esp_lat_p99_ms", calmQuantile(ph.esp, ph.dur, 0.99))
	m.set("rta_qps", slicedRate(ph.rta, ph.dur))
	m.set("rta_lat_p50_ms", calmQuantile(ph.rta, ph.dur, 0.50))
	m.set("rta_lat_p95_ms", calmQuantile(ph.rta, ph.dur, 0.95))
	m.set("fresh_p50_ms", calmQuantile(ph.fresh, ph.dur, 0.50))
	m.set("fresh_p90_ms", calmQuantile(ph.fresh, ph.dur, 0.90))
	m.set("server_rss_mb", rssMB)
	res.Samples["esp_lat"] = len(ph.esp)
	res.Samples["rta_lat"] = len(ph.rta)
	res.Samples["fresh"] = len(ph.fresh)
}

// runOnce performs one run and returns its result. A nil error means the
// run completed; whether its outputs were correct is res.Correct.
func runOnce(cfg runConfig) (*result, error) {
	res := &result{
		Workload: cfg.w.Name, Why: cfg.w.Why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: readHost(cfg.root), FlushPolicy: flushPolicy, BuildS: cfg.buildS,
		Samples: map[string]int{},
	}
	var err error
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		err = runTimed(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	if cfg.outDir != "" {
		name := fmt.Sprintf("%s-seed%d.json", cfg.w.Name, cfg.seed)
		if cfg.trace {
			name = fmt.Sprintf("%s-seed%d-layers.json", cfg.w.Name, cfg.seed)
		}
		if err := writeJSON(filepath.Join(cfg.outDir, name), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finish runs the output checks (and, where the workload has one, the
// durability check) on a measured server and folds them into res.
func finish(cfg runConfig, res *result, l *live, after *stats) (recoverS float64) {
	c := &checks{}
	res.Attempted += l.r.eventsSent.Load()
	snap := l.r.verify(c, after.scalar["aim_core_events_total"])
	if cfg.w.Recover && snap != nil {
		srv2, d := l.r.recoverCheck(c, cfg.bin, l.runDir, l.srv, snap)
		l.st = nil // closed by recoverCheck
		l.srv = srv2
		recoverS = d.Seconds()
	}
	res.ChecksRun = len(c.list)
	res.ChecksFailed = c.failed()
	res.Attempted += uint64(res.ChecksRun)
	res.Failed += uint64(len(res.ChecksFailed))
	return recoverS
}

// runTimed is a --trace 0 run: no decorators, setupsPerRun set-ups, one
// timed window on the last of them, then the checks.
func runTimed(cfg runConfig, res *result) error {
	var l *live
	var setups []float64
	n := setupsPerRun
	if cfg.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		if l != nil {
			l.teardown()
		}
		var d time.Duration
		var err error
		if l, d, err = setUp(cfg, nil); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { l.teardown() }()
	res.ServerFlags = l.srv.flagLine
	res.SetupsS = setups
	res.tally(l.warm)
	if !cfg.quick {
		alignWindow(res, l)
	}

	win, err := measure(l, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(l.srv.cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("server rss: %w", err)
	}
	res.tally(win.ph)

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	endToEndMetrics(m, res, win.ph, rss)
	res.Metrics = m.export()
	if late := quantile(win.ph.late, 0.95); late > 5 {
		res.Notes = append(res.Notes, fmt.Sprintf("gen.late_p95_ms = %.2f > 5: the open-loop sender ran late, treat this run as invalid", late))
	}
	finish(cfg, res, l, win.after)
	return nil
}

// traceFile is what -out writes per traced workload.
type traceFile struct {
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	SpansTotal   int         `json:"spans_total"`
	SpansWritten int         `json:"spans_written"`
	Summary      spanSummary `json:"summary"`
	Spans        []span      `json:"spans"`
}

// runTraced is a --trace 1 run: one set-up; an untraced and a traced half
// window on the same client stack (their difference is the tracing
// overhead); the S/O deltas across the traced half; the checks; then, with
// the server gone, the P probes. End-to-end metrics are never taken here.
func runTraced(cfg runConfig, res *result) error {
	tr := newTracer(cfg.w.Entities)
	l, _, err := setUp(cfg, tr)
	if err != nil {
		return err
	}
	defer func() { l.teardown() }()
	res.ServerFlags = l.srv.flagLine
	res.tally(l.warm)
	if !cfg.quick {
		alignWindow(res, l)
	}
	half := time.Duration(cfg.seconds) * time.Second / 2

	plain, err := measure(l, half)
	if err != nil {
		return err
	}
	reg0 := obs.StatsJSON(l.st.reg)
	frames0 := l.st.wireFrames[wireEvent].Load() + l.st.wireFrames[wireEventBatch].Load()
	bytes0 := l.st.wireBytes.Load()
	tr.on.Store(true)
	traced, err := measure(l, half)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	reg1 := obs.StatsJSON(l.st.reg)
	frames := l.st.wireFrames[wireEvent].Load() + l.st.wireFrames[wireEventBatch].Load() - frames0
	wireBytes := l.st.wireBytes.Load() - bytes0
	res.tally(plain.ph)
	res.tally(traced.ph)

	m := newMetricSet(perLayer)
	spans := tr.merge()
	sum, err := summarize(spans)
	if err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "trace: "+err.Error())
	}
	res.Attempted++
	// Router.Ingest's span must be its own routing time plus the client call
	// under it; a gap means spans were attributed to the wrong parent.
	if in := sum.DurNs["esp.ingest"]; in > 0 {
		parts := sum.SelfNs["esp.ingest"] + sum.DurNs["netproto.event_async"]
		res.Attempted++
		if gap := (parts - in) / in; gap > 0.05 || gap < -0.05 {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("trace: route + client spans are %.1f%% off the Router.Ingest span", 100*gap))
		}
	}
	spanMetrics(m, sum, frames)
	clientMetrics(m, reg0, reg1, frames, wireBytes)
	serverMetrics(m, traced)
	m.set("gen.late_p95_ms", quantile(traced.ph.late, 0.95))
	m.set("gen.cpu_s", traced.genCPU)
	m.set("proc.server_cpu_s", traced.srvCPU)
	m.set("trace.overhead_frac", overheadFrac(plain.ph, traced.ph))
	res.Samples["spans"] = len(spans)
	res.Samples["esp_lat"] = len(traced.ph.esp)
	res.Samples["rta_lat"] = len(traced.ph.rta)

	m.set("core.recover_s", finish(cfg, res, l, traced.after))
	l.teardown()

	if err := runProbes(cfg, m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	res.Metrics = m.export()
	res.Absent = m.absent
	if cfg.outDir != "" {
		tf := traceFile{Workload: cfg.w.Name, Seed: cfg.seed, SpansTotal: len(spans), Summary: sum, Spans: spans}
		if len(tf.Spans) > traceSpanCap {
			tf.Spans = tf.Spans[:traceSpanCap]
		}
		tf.SpansWritten = len(tf.Spans)
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+cfg.w.Name+".json"), tf); err != nil {
			return err
		}
	}
	return nil
}

// overheadFrac is the larger relative drop of the two throughputs between
// the untraced and the traced half window.
func overheadFrac(plain, traced *phase) float64 {
	drop := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return (a - b) / a
	}
	ev := drop(slicedRate(plain.esp, plain.dur), slicedRate(traced.esp, traced.dur))
	q := drop(slicedRate(plain.rta, plain.dur), slicedRate(traced.rta, traced.dur))
	if q > ev {
		return q
	}
	return ev
}

// spanMetrics derives the T metrics. Router.Ingest's span is the cluster's
// routing (self time) plus the netproto client call under it, so
// route_ns_per_event*events + event_flush_us*frames is that span's total.
func spanMetrics(m *metricSet, sum spanSummary, frames uint64) {
	per := func(total float64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	m.set("cluster.route_ns_per_event", per(sum.SelfNs["esp.ingest"], float64(sum.Count["esp.ingest"])))
	m.set("netproto.event_flush_us", per(sum.DurNs["netproto.event_async"], float64(frames))/1e3)
	m.set("netproto.query_call_us", per(sum.DurNs["netproto.query"], float64(sum.Count["netproto.query"]))/1e3)
	m.set("rta.gather_us", per(sum.SelfNs["rta.execute"], float64(sum.Count["rta.execute"]))/1e3)
}

// clientMetrics derives the counts the generator's own registry and wire
// counter hold.
func clientMetrics(m *metricSet, reg0, reg1 map[string]any, frames, wireBytes uint64) {
	num := func(reg map[string]any, name string) (float64, bool) {
		v, ok := reg[name].(float64)
		return v, ok
	}
	e0, ok0 := num(reg0, "aim_net_client_events_total")
	e1, ok1 := num(reg1, "aim_net_client_events_total")
	events := e1 - e0
	m.setIf("netproto.events_per_frame", events/float64(frames), ok0 && ok1 && frames > 0)
	m.setIf("netproto.bytes_per_event", float64(wireBytes)/events, ok0 && ok1 && events > 0)
	// Labelled per target server; the harness has one.
	s0, ok0 := num(reg0, `aim_cluster_events_spilled_total{target="0"}`)
	s1, ok1 := num(reg1, `aim_cluster_events_spilled_total{target="0"}`)
	m.setIf("cluster.spilled_events", s1-s0, ok0 && ok1)
}

// serverMetrics derives the S and O metrics from the scrapes around the
// traced half window.
func serverMetrics(m *metricSet, w *window) {
	b, a := w.before, w.after
	d := func(name string) (float64, bool) { return statDelta(b, a, name) }
	ratio := func(out, num, den string, scale float64) {
		n, ok1 := d(num)
		dn, ok2 := d(den)
		m.setIf(out, scale*n/dn, ok1 && ok2 && dn > 0)
	}
	count := func(out, series string) {
		v, ok := d(series)
		m.setIf(out, v, ok)
	}
	count("core.events_applied", "aim_core_events_total")
	count("core.queries_served", "aim_core_queries_served_total")
	count("core.merged_records", "aim_core_merged_records_total")
	count("core.scan_rounds", "aim_core_scan_rounds_total")
	ratio("core.queries_per_round", "aim_core_queries_served_total", "aim_query_rounds_total", 1)
	ratio("core.coalesced_put_frac", "aim_core_coalesced_puts_total", "aim_core_events_total", 1)
	ratio("rules.firings_per_kevent", "aim_esp_rule_firings_total", "aim_core_events_total", 1000)
	fresh, ok := a.hist["aim_core_freshness_seconds"]
	m.setIf("core.fresh_p95_ms", fresh.P95*1e3, ok)

	hot, ok1 := a.scalar[`aim_core_main_bytes{tier="hot"}`]
	cold, ok2 := a.scalar[`aim_core_main_bytes{tier="cold"}`]
	cr, ok3 := a.scalar["aim_core_cold_compression_ratio"]
	coldRaw := cold * cr
	m.setIf("columnmap.cold_frac", coldRaw/(hot+coldRaw), ok1 && ok2 && ok3 && hot+coldRaw > 0)
	m.setIf("columnmap.compression_ratio", cr, ok3)
	count("columnmap.freezes", "aim_core_bucket_freezes_total")
	count("columnmap.thaws", "aim_core_bucket_thaws_total")

	saved, ok1 := d("aim_query_predicates_saved_total")
	evald, ok2 := d("aim_query_predicates_evaluated_total")
	m.setIf("query.preds_saved_frac", saved/(saved+evald), ok1 && ok2 && saved+evald > 0)

	// From the server's own byte counter, not the size of the WAL
	// directory: checkpoint GC truncates the log below each base.
	ratio("archive.bytes_per_event", "aim_archive_append_bytes_total", "aim_core_events_total", 1)
	// Series that exist only with -data-dir are absent on scan_saturate.
	f0, ok1 := b.hist["aim_archive_fsync_seconds"]
	f1, ok2 := a.hist["aim_archive_fsync_seconds"]
	m.setIf("archive.fsyncs", f1.Count-f0.Count, ok1 && ok2)
	count("checkpoint.runs", "aim_ckpt_total")
}
