package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/workload"
)

// tieredAgingRounds is how many hot-write/merge rounds the sweep runs after
// the initial load: enough for every cold bucket to age past the freeze
// threshold while the hot prefix keeps getting restamped.
const tieredAgingRounds = 8

// TieredSweep measures the cold tier's capacity/latency trade: resident
// bytes per entity and shared-scan latency of a flat (all-hot) partition
// versus a tiered one at several hot fractions, plus the all-cold extreme.
// Hot entities are a prefix of the population, so their write traffic stays
// confined to a few buckets and the rest of the matrix ages out and freezes
// — the skew the tier is built for. The scan runs the seven Huawei RTA
// templates over the full population, so the penalty column prices direct
// predicate/aggregate evaluation on compressed chunks (with decompression
// fallback where no kernel applies) against flat slab scans.
func TieredSweep(p Params) (*Table, error) {
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	entities := p.Entities
	bucket := p.BucketSize
	// The sweep needs several full buckets to have anything to freeze; at
	// smoke scale shrink the bucket rather than the population.
	if uint64(bucket)*4 > entities {
		bucket = int(entities / 4)
		if bucket < 64 {
			bucket = 64
		}
	}
	// Trim to a whole number of buckets: a partial tail bucket can never
	// freeze, and at sweep scale (a handful of buckets) its fixed hot cost
	// would swamp the capacity ratio the sweep exists to measure. At
	// production entity counts (thousands of buckets) the tail is noise.
	entities -= entities % uint64(bucket)

	qgen, err := workload.NewQueryGen(w.Schema, p.Seed)
	if err != nil {
		return nil, err
	}
	queries := []*query.Query{
		qgen.Q1(1), qgen.Q2(3), qgen.Q3(), qgen.Q4(4, 60), qgen.Q5(1, 1), qgen.Q6(2), qgen.Q7(0),
	}

	// build loads the full population, then runs aging rounds in which only
	// the hot prefix is rewritten. With ColdAfterEpochs=2 the cold remainder
	// freezes mid-sweep and the state at return is the steady state: buckets
	// the hot prefix touches stay hot, everything else is compressed.
	build := func(tiered bool, hotFrac float64) (*core.Partition, error) {
		part := core.NewPartition(w.Schema, bucket, w.Dims.Factory(w.Schema))
		if tiered {
			part.EnableTiering(core.TierConfig{Enabled: true, ColdAfterEpochs: 2, MaxFreezePerStep: -1})
		}
		gen := event.NewGenerator(entities, p.Seed)
		var ev event.Event
		// Merge once per bucket's worth of entities: delta iteration permutes
		// rids within a merge batch, so bucket-sized batches keep the hot
		// prefix aligned to whole buckets instead of smearing it across all.
		for e := uint64(1); e <= entities; e++ {
			gen.NextFor(&ev, e)
			part.ApplyEvent(&ev)
			if e%uint64(bucket) == 0 {
				part.MergeStep()
			}
		}
		part.MergeStep()
		part.MergeStep() // flush the sealed delta from the step above
		hot := uint64(float64(entities) * hotFrac)
		for r := 0; r < tieredAgingRounds; r++ {
			for e := uint64(1); e <= hot; e++ {
				gen.NextFor(&ev, e)
				part.ApplyEvent(&ev)
			}
			part.MergeStep()
		}
		return part, nil
	}

	plan, err := query.CompileBatch(w.Schema, queries)
	if err != nil {
		return nil, err
	}
	ex := query.NewExecutor(w.Schema, w.Dims.Store)
	scanMs := func(part *core.Partition) (float64, error) {
		var scanErr error
		d := timeBest(5, func() {
			partials := make([]*query.Partial, len(queries))
			for i, q := range queries {
				partials[i] = query.NewPartial(q)
			}
			for _, b := range part.ScanSnapshot() {
				if err := ex.ProcessBucketBatch(b, plan, partials); err != nil {
					scanErr = err
					return
				}
			}
			plan.FoldDuplicates(partials)
		})
		return float64(d.Microseconds()) / 1e3, scanErr
	}

	t := &Table{
		Title:  "Tiered compressed main: entities per GB and cold-scan penalty vs flat",
		Header: []string{"config", "bytes/entity", "entities/GB", "capacity", "scan_ms", "penalty", "cold_ratio"},
	}

	flat, err := build(false, 0)
	if err != nil {
		return nil, err
	}
	flatBytes := float64(flat.Main().MemoryBytes()) / float64(entities)
	flatScan, err := scanMs(flat)
	if err != nil {
		return nil, err
	}
	t.AddRow("flat (all hot)", fmt.Sprintf("%.0f", flatBytes),
		fmt.Sprintf("%.2fM", (1<<30)/flatBytes/1e6), "1.00x",
		fmt.Sprintf("%.2f", flatScan), "1.00x", "-")

	for _, hotFrac := range []float64{0.25, 0.10, 0.02, 0} {
		part, err := build(true, hotFrac)
		if err != nil {
			return nil, err
		}
		ts := part.Main().Tier()
		if ts.ColdBuckets == 0 {
			return nil, fmt.Errorf("bench: tiered sweep hot=%.2f froze nothing (%+v)", hotFrac, ts)
		}
		bytesPerEnt := float64(part.Main().MemoryBytes()) / float64(entities)
		scan, err := scanMs(part)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("tiered %.0f%% hot", hotFrac*100)
		if hotFrac == 0 {
			label = "tiered all cold"
		}
		t.AddRow(label, fmt.Sprintf("%.0f", bytesPerEnt),
			fmt.Sprintf("%.2fM", (1<<30)/bytesPerEnt/1e6),
			fmt.Sprintf("%.2fx", flatBytes/bytesPerEnt),
			fmt.Sprintf("%.2f", scan),
			fmt.Sprintf("%.2fx", scan/flatScan),
			fmt.Sprintf("%.1fx", ts.CompressionRatio()))
	}
	t.Note("%d entities, bucket %d, %d aging rounds, ColdAfterEpochs=2; scan = Q1-Q7 shared scan, best of 5", entities, bucket, tieredAgingRounds)
	t.Note("capacity = flat bytes/entity over tiered; penalty = tiered scan time over flat")
	return t, nil
}
