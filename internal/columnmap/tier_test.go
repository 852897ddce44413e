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

// TestTierThawBackoff pins freeze eligibility under the thaw-count backoff:
// a bucket thawed t times waits coldAfter << t idle epochs, coldAfter 0
// stays eager across thaws, and a bucket never thawed keeps the plain
// coldAfter rule beside it.
func TestTierThawBackoff(t *testing.T) {
	const slots, bucketSize = 3, 8
	for _, coldAfter := range []uint64{0, 1, 3} {
		cm := New(slots, bucketSize)
		rec := make([]uint64, slots)
		for e := uint64(1); e <= 2*bucketSize; e++ {
			rec[0] = e
			if _, err := cm.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		// frozenAfter ticks epochs until FreezeCold freezes bucket b and
		// returns how many idle epochs that took.
		frozenAfter := func(b int) uint64 {
			t.Helper()
			for idle := uint64(1); idle < 1<<20; idle++ {
				cm.AdvanceEpoch()
				cm.FreezeCold(coldAfter, 0)
				cm.mu.RLock()
				frozen := cm.buckets[b].frozen != nil
				cm.mu.RUnlock()
				if frozen {
					return idle
				}
			}
			t.Fatalf("coldAfter %d: bucket %d never froze", coldAfter, b)
			return 0
		}
		// Never thawed: today's rule, coldAfter+1 idle epochs.
		if got := frozenAfter(0); got != coldAfter+1 {
			t.Fatalf("coldAfter %d: unthawed bucket froze after %d idle epochs, want %d", coldAfter, got, coldAfter+1)
		}
		for thaws := uint64(1); thaws <= 4; thaws++ {
			rec[0] = 1 // bucket 0: thaws it and restamps its epoch
			if err := cm.Upsert(rec); err != nil {
				t.Fatal(err)
			}
			if ts := cm.Tier(); ts.Thaws != thaws {
				t.Fatalf("coldAfter %d: %d thaws, want %d", coldAfter, ts.Thaws, thaws)
			}
			want := coldAfter<<thaws + 1
			if got := frozenAfter(0); got != want {
				t.Fatalf("coldAfter %d after %d thaws: froze after %d idle epochs, want %d", coldAfter, thaws, got, want)
			}
		}
		// A bucket filled now has never thawed: it needs only coldAfter+1
		// idle epochs, though bucket 0 beside it backs off.
		for e := uint64(2*bucketSize + 1); e <= 3*bucketSize; e++ {
			rec[0] = e
			if _, err := cm.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got := frozenAfter(2); got != coldAfter+1 {
			t.Fatalf("coldAfter %d: unthawed neighbour froze after %d idle epochs, want %d", coldAfter, got, coldAfter+1)
		}
	}
}

// TestTierThawBackoffSaturates: the thaw count saturates and the shift is
// capped, so a bucket thawed hundreds of times still freezes after
// coldAfter << maxThawBackoff idle epochs.
func TestTierThawBackoffSaturates(t *testing.T) {
	const slots, bucketSize, coldAfter = 2, 4, 1
	cm := New(slots, bucketSize)
	rec := make([]uint64, slots)
	for e := uint64(1); e <= bucketSize; e++ {
		rec[0] = e
		if _, err := cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		cm.AdvanceEpoch()
		cm.AdvanceEpoch()
		cm.FreezeCold(0, 0) // eager: freeze so the next write thaws
		rec[0] = 1
		if err := cm.Upsert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if cm.thawCounts[0] != 255 {
		t.Fatalf("thaw count %d, want saturated at 255", cm.thawCounts[0])
	}
	for idle := 1; idle <= coldAfter<<maxThawBackoff; idle++ {
		cm.AdvanceEpoch()
		if n := cm.FreezeCold(coldAfter, 0); n != 0 {
			t.Fatalf("froze after %d idle epochs, want %d", idle, coldAfter<<maxThawBackoff+1)
		}
	}
	cm.AdvanceEpoch()
	if n := cm.FreezeCold(coldAfter, 0); n != 1 {
		t.Fatalf("not frozen after %d idle epochs", coldAfter<<maxThawBackoff+1)
	}
}
