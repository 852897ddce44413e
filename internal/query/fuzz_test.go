package query_test

import (
	"reflect"
	"testing"

	"repro/internal/query"
)

// The fuzz seeds of the two socket-facing decoders come from one instance
// of each of the seven RTA templates over the compact schema.

// FuzzDecodeQuery: DecodeQuery must reject or accept any frame without
// panicking or allocating by an unchecked wire count, and whatever it
// accepts must survive an encode/decode round trip unchanged.
func FuzzDecodeQuery(f *testing.F) {
	_, _, gen, _ := setupBench(f, 1, 1)
	for _, q := range templateBatch(gen, 7) {
		f.Add(query.EncodeQuery(q))
	}
	f.Add([]byte{})
	// 65535 conjuncts of 65535 predicates each, then nothing.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		q, err := query.DecodeQuery(frame)
		if err != nil {
			return
		}
		again, err := query.DecodeQuery(query.EncodeQuery(q))
		if err != nil {
			t.Fatalf("re-decode of an accepted query failed: %v", err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("query changed across a round trip:\n%+v\n%+v", q, again)
		}
	})
}

// FuzzDecodePartial is the same property for partial results, seeded with
// the templates' partials over a small matrix (global, grouped,
// dimension-joined and arg shapes).
func FuzzDecodePartial(f *testing.F) {
	sch, buckets, gen, dims := setupBench(f, 256, 64)
	ex := query.NewExecutor(sch, dims.Store)
	for _, q := range templateBatch(gen, 7) {
		p := query.NewPartial(q)
		for _, b := range buckets {
			if err := ex.ProcessBucket(b, q, p); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(query.EncodePartial(p))
	}
	f.Add([]byte{})
	// One aggregate, four billion groups, then nothing: the count must not
	// size the group map.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := query.DecodePartial(frame)
		if err != nil {
			return
		}
		again, err := query.DecodePartial(query.EncodePartial(p))
		if err != nil {
			t.Fatalf("re-decode of an accepted partial failed: %v", err)
		}
		if len(again.Groups) != len(p.Groups) || again.NumAggs != p.NumAggs || again.QueryID != p.QueryID {
			t.Fatalf("partial changed across a round trip: %d/%d groups, %d/%d aggs",
				len(p.Groups), len(again.Groups), p.NumAggs, again.NumAggs)
		}
	})
}
