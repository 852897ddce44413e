package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/columnmap"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// The P probes replay the workload's own seeded inputs — same schema,
// bucket size, rule set, caller distribution, query mix — through one
// layer's public functions, in this process, after the server is gone. Each
// layer has its own probe_<layer>.go so a signature change breaks one file.
// Probe costs are compared between two commits on one host; multiplied by
// the scraped counts they say which layer the server's CPU went to.

const (
	// probeMatrixBytes sizes the probe matrix: well past the last-level
	// cache, small enough to build in about a second.
	probeMatrixBytes = 48 << 20
	// probeEvents is how many of the stream's first events a probe replays.
	probeEvents = 20_000
	// probeQueries is how many of the query stream's first queries.
	probeQueries = 64
	// defaultBucket is aimserver's -bucket default.
	defaultBucket = 3072
)

// fixture is the shared probe input.
type fixture struct {
	w         spec
	sch       *schema.Schema
	dims      *workload.Dimensions
	factory   func(uint64) schema.Record
	rules     []rules.Rule
	bucket    int
	tiered    bool
	coldAfter int
	dir       string // scratch for the archive and checkpoint probes

	entities uint64
	preload  []event.Event   // one per probe entity, in id order
	events   []event.Event   // the stream's first events, callers folded onto the probe entities
	records  []schema.Record // records[i] is entity i+1 after its preload event
	queries  []*query.Query
}

func newFixture(cfg runConfig) (*fixture, error) {
	w := cfg.w
	sch, err := buildSchema(w.Full)
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w, sch: sch, bucket: defaultBucket}
	for i, flag := range w.Flags {
		switch flag {
		case "-bucket":
			if f.bucket, err = strconv.Atoi(w.Flags[i+1]); err != nil {
				return nil, fmt.Errorf("workload -bucket flag: %w", err)
			}
		case "-bucket-freeze":
			f.tiered = true
		case "-cold-after":
			if f.coldAfter, err = strconv.Atoi(w.Flags[i+1]); err != nil {
				return nil, fmt.Errorf("workload -cold-after flag: %w", err)
			}
		}
	}
	if f.dims, err = workload.BuildDimensions(serverSeed); err != nil {
		return nil, err
	}
	f.factory = f.dims.Factory(sch)
	if f.rules, err = workload.BuildRules(sch, serverRules, serverSeed); err != nil {
		return nil, err
	}
	f.entities = uint64(probeMatrixBytes / sch.RecordBytes())
	// Whole buckets, so a tiered matrix can freeze all of them.
	f.entities -= f.entities % uint64(f.bucket)
	if f.entities < uint64(f.bucket) {
		f.entities = uint64(f.bucket)
	}
	if f.entities > w.Entities-1 {
		f.entities = w.Entities - 1
	}

	stream := newEventStream(w, cfg.seed)
	f.preload = make([]event.Event, f.entities)
	f.records = make([]schema.Record, f.entities)
	for i := range f.preload {
		id := uint64(i + 1)
		stream.gen.NextFor(&f.preload[i], id)
		f.records[i] = f.factory(id)
		sch.Apply(f.records[i], &f.preload[i])
	}
	f.events = make([]event.Event, probeEvents)
	for i := range f.events {
		stream.next(&f.events[i])
		// Fold callers onto the probe entities so every event finds its
		// record, as on the preloaded server; the hot set keeps its ids.
		f.events[i].Caller = (f.events[i].Caller-1)%f.entities + 1
	}
	g, err := workload.NewQueryGen(sch, cfg.seed*1000+100)
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeQueries; i++ {
		f.queries = append(f.queries, g.Next())
	}
	if f.dir, err = newRunDir(cfg.root); err != nil {
		return nil, err
	}
	return f, nil
}

// record returns the fixture's record of an event's caller.
func (f *fixture) record(ev *event.Event) schema.Record { return f.records[ev.Caller-1] }

// matrix builds a ColumnMap main holding every probe record, in id order
// like the server's preload; frozen compresses every full bucket.
func (f *fixture) matrix(frozen bool) (*columnmap.ColumnMap, error) {
	cm := columnmap.New(f.sch.Slots, f.bucket)
	for _, rec := range f.records {
		if err := cm.Upsert(rec); err != nil {
			return nil, err
		}
	}
	if frozen {
		cm.SetColHints(f.sch.ColHints())
		cm.AdvanceEpoch()
		cm.AdvanceEpoch()
		cm.FreezeCold(0, 0)
	}
	return cm, nil
}

// perOp is elapsed nanoseconds per operation.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// runProbes runs every layer's probe and records the P metrics.
func runProbes(cfg runConfig, m *metricSet) error {
	f, err := newFixture(cfg)
	if err != nil {
		return err
	}
	defer removeRunDir(f.dir)
	for _, probe := range []struct {
		layer string
		run   func(*fixture, *metricSet) error
	}{
		{"event", probeEvent},
		{"netproto", probeNetproto},
		{"schema", probeSchema},
		{"rules", probeRules},
		{"delta", probeDelta},
		{"columnmap", probeColumnmap},
		{"vec", probeVec},
		{"query", probeQuery},
		{"core", probeCore},
		{"archive", probeArchive},
		{"checkpoint", probeCheckpoint},
	} {
		if err := probe.run(f, m); err != nil {
			return fmt.Errorf("%s probe: %w", probe.layer, err)
		}
	}
	return nil
}
