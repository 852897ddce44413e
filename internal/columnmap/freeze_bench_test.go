package columnmap_test

import (
	"testing"

	"repro/internal/columnmap"
	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/workload"
)

// BenchmarkFreezeBucket times freezing one compact-schema bucket: 256
// records (378 slots each) built from the workload's dimension factory with
// real events applied, compressed under the schema's own column hints. Each
// iteration rebuilds the bucket hot, off the clock, so the timed part is
// FreezeCold alone.
func BenchmarkFreezeBucket(b *testing.B) {
	const records = 256
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		b.Fatal(err)
	}
	dims, err := workload.BuildDimensions(42)
	if err != nil {
		b.Fatal(err)
	}
	factory := dims.Factory(sch)
	recs := make([]schema.Record, records)
	for i := range recs {
		recs[i] = factory(uint64(i + 1))
	}
	gen := event.NewGenerator(records, 9)
	var ev event.Event
	for i := 0; i < 16*records; i++ {
		gen.Next(&ev)
		sch.Apply(recs[ev.Caller-1], &ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cm := columnmap.New(sch.Slots, records)
		cm.SetColHints(sch.ColHints())
		for _, rec := range recs {
			if _, err := cm.Insert(rec); err != nil {
				b.Fatal(err)
			}
		}
		cm.AdvanceEpoch()
		b.StartTimer()
		if n := cm.FreezeCold(0, 0); n != 1 {
			b.Fatalf("froze %d buckets, want 1", n)
		}
	}
}
