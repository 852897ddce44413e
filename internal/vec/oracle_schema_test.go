package vec_test

import (
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/vec"
	"repro/internal/workload"
)

// TestCompressMatchesOracleOnCompactBucket: every column of a compact-schema
// bucket — 256 records built from real events, the shape the tiered main
// freezes — compresses reflect.DeepEqual to the map-based oracle under the
// schema's own hint and under the other two.
func TestCompressMatchesOracleOnCompactBucket(t *testing.T) {
	const records = 256
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	dims, err := workload.BuildDimensions(42)
	if err != nil {
		t.Fatal(err)
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
	hints := sch.ColHints()
	var encs [vec.NumEnc]int
	col := make([]uint64, records)
	for c := 0; c < sch.Slots; c++ {
		for i, rec := range recs {
			col[i] = rec[c]
		}
		for _, hint := range []vec.Hint{hints[c], vec.HintUint, vec.HintInt, vec.HintFloat} {
			got, want := vec.Compress(col, records, hint), vec.CompressOracle(col, records, hint)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("column %d hint %d: got %v, oracle %v", c, hint, got.Enc, want.Enc)
			}
			encs[got.Enc]++
		}
	}
	t.Logf("%d columns; chunks per encoding (raw const for dict rle): %v", sch.Slots, encs)
}
