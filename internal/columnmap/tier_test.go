package columnmap

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// mkTierRec builds a record with mixed column shapes: constant, small-range,
// low-cardinality, and a raw-ish counter.
func mkTierRec(e uint64, slots int, r *rand.Rand) []uint64 {
	rec := make([]uint64, slots)
	rec[0] = e
	for c := 1; c < slots; c++ {
		switch c % 4 {
		case 0:
			rec[c] = 42 // constant
		case 1:
			rec[c] = uint64(r.Intn(100)) // small range
		case 2:
			rec[c] = []uint64{7, 1 << 40, 3 << 20}[r.Intn(3)] // low cardinality
		default:
			rec[c] = r.Uint64() // incompressible
		}
	}
	return rec
}

// TestTierFreezeThawEquivalence drives upserts through epochs with an
// aggressive freeze policy and checks every read path (Gather, Value,
// Snapshot hot/frozen) against a flat oracle map after each round.
func TestTierFreezeThawEquivalence(t *testing.T) {
	const slots, bucketSize, entities = 9, 16, 200
	r := rand.New(rand.NewSource(3))
	cm := New(slots, bucketSize)
	cm.SetColHints([]vec.Hint{vec.HintUint, vec.HintInt, vec.HintUint, vec.HintFloat})
	oracle := make(map[uint64][]uint64)

	for round := 0; round < 30; round++ {
		// Touch a random subset; first round seeds everyone.
		for e := uint64(1); e <= entities; e++ {
			if round > 0 && r.Intn(10) != 0 {
				continue
			}
			rec := mkTierRec(e, slots, r)
			if err := cm.Upsert(rec); err != nil {
				t.Fatal(err)
			}
			oracle[e] = rec
		}
		cm.AdvanceEpoch()
		cm.FreezeCold(0, 0)

		dst := make([]uint64, slots)
		for e, want := range oracle {
			ok, err := cm.GatherEntity(e, dst)
			if err != nil || !ok {
				t.Fatalf("round %d entity %d: ok=%v err=%v", round, e, ok, err)
			}
			for c := range want {
				if dst[c] != want[c] {
					t.Fatalf("round %d entity %d col %d: %#x want %#x", round, e, c, dst[c], want[c])
				}
			}
			rid, _ := cm.Lookup(e)
			if v := cm.Value(rid, slots-1); v != want[slots-1] {
				t.Fatalf("round %d entity %d: Value %#x want %#x", round, e, v, want[slots-1])
			}
		}
		// Snapshot parity: hot buckets via Col, frozen via decompression.
		scratch := make([]uint64, bucketSize)
		for _, b := range cm.Snapshot() {
			for c := 0; c < slots; c++ {
				var col []uint64
				if fb := b.Frozen(); fb != nil {
					col = fb.DecompressCol(c, scratch)
				} else {
					col = b.Col(c)
				}
				for off := 0; off < b.N; off++ {
					e := cm.Value(b.Base+uint32(off), 0)
					if col[off] != oracle[e][c] {
						t.Fatalf("round %d bucket %d col %d off %d: %#x want %#x",
							round, b.Base, c, off, col[off], oracle[e][c])
					}
				}
			}
		}
	}
	ts := cm.Tier()
	if ts.Freezes == 0 || ts.Thaws == 0 {
		t.Fatalf("expected both freezes and thaws, got %+v", ts)
	}
}

// TestTierStatsAccounting checks the hot/cold byte accounting and that
// MemoryBytes shrinks when compressible buckets freeze.
func TestTierStatsAccounting(t *testing.T) {
	const slots, bucketSize = 6, 64
	cm := New(slots, bucketSize)
	rec := make([]uint64, slots)
	for e := uint64(1); e <= 4*bucketSize; e++ {
		rec[0] = e
		for c := 1; c < slots; c++ {
			rec[c] = uint64(c) // constant columns: maximally compressible
		}
		if _, err := cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	flatBytes := cm.MemoryBytes()
	cm.AdvanceEpoch()
	if got := cm.FreezeCold(0, 0); got != 4 {
		t.Fatalf("froze %d buckets, want 4", got)
	}
	ts := cm.Tier()
	if ts.ColdBuckets != 4 || ts.HotBuckets != 0 {
		t.Fatalf("split %+v", ts)
	}
	if ts.ColdChunks != 4*slots {
		t.Fatalf("cold chunks %d want %d", ts.ColdChunks, 4*slots)
	}
	if ts.ColdBytes >= ts.ColdRawBytes {
		t.Fatalf("no compression: cold %d raw %d", ts.ColdBytes, ts.ColdRawBytes)
	}
	if ts.CompressionRatio() < 4 {
		t.Fatalf("ratio %.2f too low for constant columns", ts.CompressionRatio())
	}
	if got := cm.MemoryBytes(); got >= flatBytes {
		t.Fatalf("memory did not shrink: %d -> %d", flatBytes, got)
	}
	// Thaw one bucket via an upsert; accounting must come back.
	rec[0] = 1
	if err := cm.Upsert(rec); err != nil {
		t.Fatal(err)
	}
	ts = cm.Tier()
	if ts.ColdBuckets != 3 || ts.HotBuckets != 1 || ts.Thaws != 1 {
		t.Fatalf("after thaw: %+v", ts)
	}
	// A partial tail bucket must never freeze.
	rec[0] = uint64(4*bucketSize + 1)
	if _, err := cm.Insert(rec); err != nil {
		t.Fatal(err)
	}
	cm.AdvanceEpoch()
	cm.AdvanceEpoch()
	cm.FreezeCold(0, 0)
	if ts := cm.Tier(); ts.ColdBuckets != 4 {
		t.Fatalf("tail bucket frozen: %+v", ts)
	}
}

// TestTierColdAfterPolicy: buckets freeze only after the configured number
// of untouched epochs, and a write resets the bucket's age.
func TestTierColdAfterPolicy(t *testing.T) {
	const slots, bucketSize = 3, 32
	cm := New(slots, bucketSize)
	rec := make([]uint64, slots)
	for e := uint64(1); e <= 2*bucketSize; e++ {
		rec[0] = e
		if _, err := cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cm.AdvanceEpoch()
		if n := cm.FreezeCold(3, 0); n != 0 {
			t.Fatalf("epoch %d: froze %d early", i, n)
		}
	}
	// Keep bucket 1 warm, let bucket 0 age out.
	rec[0] = uint64(bucketSize + 1)
	if err := cm.Upsert(rec); err != nil {
		t.Fatal(err)
	}
	cm.AdvanceEpoch()
	if n := cm.FreezeCold(3, 0); n != 1 {
		t.Fatalf("froze %d, want only the aged bucket", n)
	}
	if ts := cm.Tier(); ts.ColdBuckets != 1 {
		t.Fatalf("%+v", ts)
	}
}

// TestTierConcurrentReaders freezes and thaws under a storm of concurrent
// Gather/Value/Snapshot readers — the Algorithm 3 analogue for tier swaps;
// run under -race this proves the directory handoff is sound. It keeps the
// package's concurrency contract: readers never read a record the writer is
// upserting (in the engine the delta shadows those), so the writer touches
// only even entities and readers gather only odd ones. Both share every
// bucket, so each freeze and thaw still swaps a representation under live
// readers.
func TestTierConcurrentReaders(t *testing.T) {
	const slots, bucketSize, entities = 5, 32, 256
	cm := New(slots, bucketSize)
	r := rand.New(rand.NewSource(11))
	for e := uint64(1); e <= entities; e++ {
		if _, err := cm.Insert(mkTierRec(e, slots, r)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			dst := make([]uint64, slots)
			scratch := make([]uint64, bucketSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := uint64(2*rr.Intn(entities/2) + 1) // odd: never written
				if ok, err := cm.GatherEntity(e, dst); err != nil || !ok || dst[0] != e {
					t.Errorf("gather %d: ok=%v err=%v id=%d", e, ok, err, dst[0])
					return
				}
				for _, b := range cm.Snapshot() {
					if fb := b.Frozen(); fb != nil {
						fb.DecompressCol(int(e)%slots, scratch)
					} else {
						_ = b.Col(int(e) % slots)
					}
				}
			}
		}(int64(g))
	}
	// Writer thread: upserts age/thaw buckets while epochs tick and freeze.
	for round := 0; round < 60; round++ {
		for j := 0; j < 20; j++ {
			e := uint64(2*r.Intn(entities/2) + 2) // even: never gathered
			rec := mkTierRec(e, slots, r)
			if err := cm.Upsert(rec); err != nil {
				t.Fatal(err)
			}
		}
		cm.AdvanceEpoch()
		cm.FreezeCold(0, 0)
	}
	close(stop)
	wg.Wait()
	if ts := cm.Tier(); ts.Freezes == 0 || ts.Thaws == 0 {
		t.Fatalf("wanted tier churn under readers, got %+v", ts)
	}
}
