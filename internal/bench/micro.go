package bench

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/rta"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// namedEngine pairs a baseline engine with a display label.
type namedEngine struct {
	label  string
	engine baseline.Engine
}

// buildBaselines constructs the three comparison engines preloaded with one
// event per entity (matching the AIM preload). No update overheads are
// attached — these instances serve the read-only RTA comparison.
func buildBaselines(p Params, w *Workload) ([]namedEngine, error) {
	factory := w.Dims.Factory(w.Schema)
	indexed := []int{
		w.Schema.MustAttrIndex("subscription_type"),
		w.Schema.MustAttrIndex("category"),
		w.Schema.MustAttrIndex("country_id"),
		w.Schema.MustAttrIndex("value_type"),
	}
	cow := baseline.NewCOWEngine(w.Schema, w.Dims.Store, factory, 16, 2048)
	engines := []namedEngine{
		{label: "System M", engine: baseline.NewSystemM(w.Schema, w.Dims.Store, factory, baseline.Overheads{})},
		{label: "System D", engine: baseline.NewSystemD(w.Schema, w.Dims.Store, factory, indexed, baseline.Overheads{})},
		{label: "HyPer-COW", engine: cow},
	}
	var ev event.Event
	for _, e := range engines {
		gen := event.NewGenerator(p.Entities, p.Seed)
		for ent := uint64(1); ent <= p.Entities; ent++ {
			gen.NextFor(&ev, ent)
			if err := e.engine.ApplyEvent(ev); err != nil {
				return nil, err
			}
		}
	}
	cow.RefreshSnapshot()
	return engines, nil
}

// buildMixedBaselines constructs preloaded engines with the calibrated
// per-update overheads, for the mixed-load (updates + queries) comparison.
func buildMixedBaselines(p Params, w *Workload) ([]namedEngine, error) {
	factory := w.Dims.Factory(w.Schema)
	indexed := []int{w.Schema.MustAttrIndex("subscription_type")}
	cow := baseline.NewCOWEngine(w.Schema, w.Dims.Store, factory, 16, 2048)
	cow.Ov = baseline.CalibratedHyPer()
	engines := []namedEngine{
		{label: "System M", engine: baseline.NewSystemM(w.Schema, w.Dims.Store, factory, baseline.CalibratedSystemM())},
		{label: "System D", engine: baseline.NewSystemD(w.Schema, w.Dims.Store, factory, indexed, baseline.CalibratedSystemD())},
		{label: "HyPer-COW", engine: cow},
	}
	// Overheads only bite per ApplyEvent, so disable them for the preload
	// and restore the calibrated values afterwards.
	var ev event.Event
	for _, e := range engines {
		setOverhead(e.engine, baseline.Overheads{})
		gen := event.NewGenerator(p.Entities, p.Seed)
		for ent := uint64(1); ent <= p.Entities; ent++ {
			gen.NextFor(&ev, ent)
			if err := e.engine.ApplyEvent(ev); err != nil {
				return nil, err
			}
		}
	}
	setOverhead(engines[0].engine, baseline.CalibratedSystemM())
	setOverhead(engines[1].engine, baseline.CalibratedSystemD())
	setOverhead(engines[2].engine, baseline.CalibratedHyPer())
	cow.RefreshSnapshot()
	return engines, nil
}

// setOverhead adjusts an engine's overhead model in place.
func setOverhead(e baseline.Engine, ov baseline.Overheads) {
	switch eng := e.(type) {
	case *baseline.SystemM:
		eng.SetOverheads(ov)
	case *baseline.SystemD:
		eng.SetOverheads(ov)
	case *baseline.COWEngine:
		eng.Ov = ov
	}
}

// runBaselineMixed drives updates as fast as the engine sustains them while
// `clients` closed-loop query clients run, returning the query stats and
// the achieved event rate.
func runBaselineMixed(e baseline.Engine, w *Workload, clients int, p Params) (rta.ClientStats, float64) {
	done := make(chan struct{})
	var evRate float64
	go func() {
		defer close(done)
		gen := event.NewGenerator(p.Entities, p.Seed+600)
		var ev event.Event
		n := 0
		start := time.Now()
		for time.Since(start) < p.Duration {
			gen.Next(&ev)
			if e.ApplyEvent(ev) != nil {
				return
			}
			n++
		}
		evRate = float64(n) / time.Since(start).Seconds()
	}()
	st := runBaselineClosedLoop(e, w, clients, p)
	<-done
	return st, evRate
}

// runBaselineClosedLoop mirrors rta.RunClosedLoop against a baseline engine.
func runBaselineClosedLoop(e baseline.Engine, w *Workload, clients int, p Params) rta.ClientStats {
	var mu sync.Mutex
	var lats []time.Duration
	errs := 0
	deadline := time.Now().Add(p.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			src, err := workload.NewQueryGen(w.Schema, seed)
			if err != nil {
				return
			}
			for time.Now().Before(deadline) {
				q := src.Next()
				t0 := time.Now()
				_, err := e.RunQuery(q)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}(p.Seed + int64(c) + 500)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := rta.ClientStats{Duration: elapsed, Errors: errs, Queries: len(lats)}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	st.Throughput = float64(len(lats)) / elapsed.Seconds()
	st.MeanLatency = sum / time.Duration(len(lats))
	st.P95Latency = lats[(len(lats)*95)/100]
	st.MaxLatency = lats[len(lats)-1]
	return st
}

// EventRateComparison reproduces the §5.1/§5.3 update-rate comparison: the
// maximum sustainable event-processing rate of AIM (both architecture
// options) and the baselines with their calibrated commercial overheads.
func EventRateComparison(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Event processing rate: AIM vs baselines (paper §5.1/§5.3)",
		Header: []string{"system", "events", "ev/s"},
	}

	// AIM, architecture (b): colocated ESP threads, pipelined events.
	sys, err := StartSystem(p, w, 1, p.Entities)
	if err != nil {
		return nil, err
	}
	n := int(p.EventRate * p.Duration.Seconds() * 4)
	if n < 20_000 {
		n = 20_000
	}
	gen := event.NewGenerator(p.Entities, p.Seed+3)
	var ev event.Event
	start := time.Now()
	for i := 0; i < n; i++ {
		gen.Next(&ev)
		if err := sys.Router.Ingest(ev); err != nil {
			sys.Stop()
			return nil, err
		}
	}
	if err := sys.Router.Flush(); err != nil {
		sys.Stop()
		return nil, err
	}
	el := time.Since(start)
	t.AddRow("AIM (colocated ESP)", n, float64(n)/el.Seconds())

	// AIM, architecture (a): update at the ESP node via Get/ConditionalPut.
	var eng *rules.Engine
	if len(w.Rules) > 0 {
		eng, err = rules.NewEngine(w.Schema, w.Rules, false)
		if err != nil {
			sys.Stop()
			return nil, err
		}
	}
	proc := esp.NewGetPutProcessor(w.Schema, sys.Nodes[0], eng, w.Dims.Factory(w.Schema))
	nA := n / 10
	start = time.Now()
	for i := 0; i < nA; i++ {
		gen.Next(&ev)
		if _, err := proc.Process(ev); err != nil {
			sys.Stop()
			return nil, err
		}
	}
	el = time.Since(start)
	t.AddRow("AIM (separate ESP, Get/Put)", nA, float64(nA)/el.Seconds())
	sys.Stop()

	// AIM without the 300-rule evaluation, to isolate the storage kernel.
	pNoRules := p
	pNoRules.Rules = 0
	wNoRules, err := BuildWorkload(pNoRules)
	if err != nil {
		return nil, err
	}
	sysNR, err := StartSystem(pNoRules, wNoRules, 1, p.Entities)
	if err != nil {
		return nil, err
	}
	gen = event.NewGenerator(p.Entities, p.Seed+5)
	start = time.Now()
	for i := 0; i < n; i++ {
		gen.Next(&ev)
		if err := sysNR.Router.Ingest(ev); err != nil {
			sysNR.Stop()
			return nil, err
		}
	}
	if err := sysNR.Router.Flush(); err != nil {
		sysNR.Stop()
		return nil, err
	}
	el = time.Since(start)
	sysNR.Stop()
	t.AddRow("AIM (colocated, no rules)", n, float64(n)/el.Seconds())

	// Baselines with calibrated commercial overheads (the structural
	// substrate is real; the overheads model the engine machinery our
	// reproduction does not pay — see DESIGN.md §3).
	factory := w.Dims.Factory(w.Schema)
	indexed := []int{w.Schema.MustAttrIndex("subscription_type")}
	cow := baseline.NewCOWEngine(w.Schema, w.Dims.Store, factory, 16, 2048)
	cow.Ov = baseline.CalibratedHyPer()
	updEngines := []namedEngine{
		{label: "HyPer-COW (calibrated)", engine: cow},
		{label: "System D (calibrated)", engine: baseline.NewSystemD(w.Schema, w.Dims.Store, factory, indexed, baseline.CalibratedSystemD())},
		{label: "System M (calibrated)", engine: baseline.NewSystemM(w.Schema, w.Dims.Store, factory, baseline.CalibratedSystemM())},
	}
	for _, e := range updEngines {
		gen := event.NewGenerator(p.Entities, p.Seed+4)
		deadline := time.Now().Add(p.Duration)
		start := time.Now()
		count := 0
		for time.Now().Before(deadline) {
			gen.Next(&ev)
			if err := e.engine.ApplyEvent(ev); err != nil {
				return nil, err
			}
			count++
		}
		el := time.Since(start)
		t.AddRow(e.label, count, float64(count)/el.Seconds())
	}
	t.Note("paper: AIM ~100k ev/s on 10 servers; HyPer ~5.5k; System D ~200; System M ~100")
	t.Note("System M/D rates follow the calibrated overheads in internal/baseline (see DESIGN.md)")
	return t, nil
}

// RuleIndexCrossover reproduces the §4.4 micro-benchmark: straight-forward
// Algorithm 2 vs the Fabret-style rule index across rule-set sizes. The
// paper found the index starts paying off around 1000 rules.
func RuleIndexCrossover(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Rule evaluation: straight-forward (Alg. 2) vs rule index (§4.4)",
		Header: []string{"rules", "straight_ns/ev", "indexed_ns/ev", "index_speedup"},
	}
	// A populated record so predicates see realistic values.
	rec := w.Dims.Factory(w.Schema)(1)
	gen := event.NewGenerator(p.Entities, p.Seed)
	var ev event.Event
	for i := 0; i < 50; i++ {
		gen.NextFor(&ev, 1)
		w.Schema.Apply(rec, &ev)
	}
	const probes = 2000
	events := make([]event.Event, probes)
	for i := range events {
		gen.NextFor(&events[i], 1)
	}
	for _, nRules := range []int{10, 50, 100, 300, 1000, 2000, 5000} {
		rs, err := workload.BuildRules(w.Schema, nRules, p.Seed)
		if err != nil {
			return nil, err
		}
		straight := timeRuleEval(w.Schema, rs, false, rec, events)
		indexed := timeRuleEval(w.Schema, rs, true, rec, events)
		t.AddRow(nRules, float64(straight.Nanoseconds())/probes,
			float64(indexed.Nanoseconds())/probes,
			float64(straight)/float64(indexed))
	}
	t.Note("paper: index pays off for rule sets of about 1000 and above")
	return t, nil
}

func timeRuleEval(sch *schema.Schema, rs []rules.Rule, useIndex bool, rec schema.Record, events []event.Event) time.Duration {
	eng, err := rules.NewEngine(sch, rs, useIndex)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := range events {
		eng.Evaluate(&events[i], rec)
	}
	return time.Since(start)
}

// BucketSizeSweep reproduces the §4.5 ablation: scan speed of one partition
// as the ColumnMap bucket size moves from row store (1) to pure column
// store (= all records).
func BucketSizeSweep(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "ColumnMap bucket size: row store -> PAX -> column store (§4.5)",
		Header: []string{"bucket", "scan_ms", "records/us"},
	}
	entities := p.Entities
	g, err := workload.NewQueryGen(w.Schema, p.Seed)
	if err != nil {
		return nil, err
	}
	q := g.Q1(0)
	var ev event.Event
	for _, bs := range []int{1, 32, 512, 3072, int(entities)} {
		part := core.NewPartition(w.Schema, bs, w.Dims.Factory(w.Schema))
		gen := event.NewGenerator(entities, p.Seed)
		for e := uint64(1); e <= entities; e++ {
			gen.NextFor(&ev, e)
			part.ApplyEvent(&ev)
		}
		part.MergeStep()
		ex := query.NewExecutor(w.Schema, w.Dims.Store)
		var best time.Duration
		for r := 0; r < 5; r++ {
			partial := query.NewPartial(q)
			t0 := time.Now()
			for _, b := range part.ScanSnapshot() {
				if err := ex.ProcessBucket(b, q, partial); err != nil {
					return nil, err
				}
			}
			if d := time.Since(t0); r == 0 || d < best {
				best = d
			}
		}
		label := strconv.Itoa(bs)
		if bs == int(entities) {
			label = "all"
		}
		t.AddRow(label, ms(best), float64(entities)/float64(best.Microseconds()))
	}
	t.Note("paper: bucket size has little impact once large enough to fill SIMD lanes")
	return t, nil
}

// COWvsDelta reproduces the §6 comparison the paper sketches: differential
// updates (AIM) vs copy-on-write snapshots under the same mixed load
// (unthrottled events + closed-loop query clients).
func COWvsDelta(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Differential updates (AIM) vs copy-on-write snapshots under mixed load, equal freshness",
		Header: []string{"system", "ev/s", "resp_ms", "rta_qps", "freshness"},
	}

	// AIM: events paced at the benchmark rate, concurrent closed-loop
	// clients (the standard mixed load).
	sys, err := StartSystem(p, w, 1, p.Entities)
	if err != nil {
		return nil, err
	}
	res, err := RunMixed(sys, p, p.Entities, p.EventRate, p.Clients)
	sys.Stop()
	if err != nil {
		return nil, err
	}
	t.AddRow("AIM (delta+main)", res.ESP.AchievedRate, ms(res.RTA.MeanLatency), res.RTA.Throughput, "~1 scan round")

	// COW engine under the same mixed load, including rule evaluation and
	// a snapshot cadence matching AIM's freshness (a refresh roughly every
	// millisecond of event traffic): the structural cost of delivering the
	// paper's t_fresh with fork-style snapshots.
	factory := w.Dims.Factory(w.Schema)
	snapEvery := int(p.EventRate / 1000)
	if snapEvery < 1 {
		snapEvery = 1
	}
	cow := baseline.NewCOWEngine(w.Schema, w.Dims.Store, factory, 16, snapEvery)
	eng, err := rules.NewEngine(w.Schema, w.Rules, false)
	if err != nil {
		return nil, err
	}
	cow.Rules = eng
	var ev event.Event
	gen := event.NewGenerator(p.Entities, p.Seed)
	for e := uint64(1); e <= p.Entities; e++ {
		gen.NextFor(&ev, e)
		if err := cow.ApplyEvent(ev); err != nil {
			return nil, err
		}
	}
	cow.RefreshSnapshot()
	cowDone := make(chan struct{})
	var cowStats2 esp.DriverStats
	go func() {
		defer close(cowDone)
		d := &esp.Driver{
			Gen:  event.NewGenerator(p.Entities, p.Seed+78),
			Rate: p.EventRate,
			Sink: cow.ApplyEvent,
		}
		cowStats2, _ = d.Run(p.Duration, 0)
	}()
	cowStats := runBaselineClosedLoop(cow, w, p.Clients, p)
	<-cowDone
	t.AddRow("COW snapshots", cowStats2.AchievedRate, ms(cowStats.MeanLatency), cowStats.Throughput,
		fmt.Sprintf("%d events", snapEvery))
	t.Note("pages copied by COW: %d; paper: COW TCO 2-3x the differential-update design", cow.PagesCopied())
	return t, nil
}

// FusedScanMicro measures the fused batch-plan scan against the naive
// shared scan (per-query predicate re-evaluation) and against batch
// independent single-query passes, over one preloaded partition. The
// batches cycle through the seven Table-5 templates with random parameters,
// matching the mix a node's coordinator batches under concurrent clients.
func FusedScanMicro(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fused shared-scan batch plans: one round over one partition",
		Header: []string{"batch", "preds", "dedup", "single_ms", "naive_ms", "fused_ms", "speedup"},
	}
	part := core.NewPartition(w.Schema, 0, w.Dims.Factory(w.Schema))
	gen := event.NewGenerator(p.Entities, p.Seed)
	var ev event.Event
	for e := uint64(1); e <= p.Entities; e++ {
		gen.NextFor(&ev, e)
		part.ApplyEvent(&ev)
	}
	part.MergeStep()
	buckets := part.ScanSnapshot()
	qg, err := workload.NewQueryGen(w.Schema, p.Seed)
	if err != nil {
		return nil, err
	}
	for _, size := range []int{1, 4, 8, 16} {
		queries := make([]*query.Query, size)
		occurrences := 0
		for i := range queries {
			queries[i] = qg.Next()
			for _, c := range queries[i].Where {
				occurrences += len(c)
			}
		}
		plan, err := query.CompileBatch(w.Schema, queries)
		if err != nil {
			return nil, err
		}
		partials := make([]*query.Partial, size)
		for qi, q := range queries {
			partials[qi] = query.NewPartial(q)
		}
		reset := func() {
			for qi, q := range queries {
				partials[qi].Reset(q)
			}
		}
		best := func(round func() error) (time.Duration, error) {
			var b time.Duration
			for r := 0; r < 5; r++ {
				reset()
				t0 := time.Now()
				if err := round(); err != nil {
					return 0, err
				}
				if d := time.Since(t0); r == 0 || d < b {
					b = d
				}
			}
			return b, nil
		}
		ex := query.NewExecutor(w.Schema, w.Dims.Store)
		single, err := best(func() error {
			for qi, q := range queries {
				for _, b := range buckets {
					if err := ex.ProcessBucket(b, q, partials[qi]); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		naive, err := best(func() error {
			for _, b := range buckets {
				for qi, q := range queries {
					if err := ex.ProcessBucket(b, q, partials[qi]); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		fused, err := best(func() error {
			for _, b := range buckets {
				if err := ex.ProcessBucketBatch(b, plan, partials); err != nil {
					return err
				}
			}
			plan.FoldDuplicates(partials)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(size, plan.NumPredicates(),
			fmt.Sprintf("%dq/%dp", plan.NumDuplicates(), occurrences-plan.NumPredicates()),
			ms(single), ms(naive), ms(fused),
			fmt.Sprintf("%.2fx", float64(single)/float64(fused)))
	}
	t.Note("speedup = batch independent single-query passes vs one fused pass; dedup = duplicate queries / shared predicate occurrences")
	return t, nil
}
