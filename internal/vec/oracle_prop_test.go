package vec

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleColumn draws a column of n values from card distinct values spread
// over a range of rangeBits bits above a random base, laid out either as
// independent draws or as runs.
func oracleColumn(r *rand.Rand, n, card, rangeBits int, runs bool) []uint64 {
	base := r.Uint64()
	pool := make([]uint64, card)
	for i := range pool {
		v := r.Uint64()
		if rangeBits < 64 {
			v &= 1<<uint(rangeBits) - 1
		}
		pool[i] = base + v
	}
	col := make([]uint64, n)
	v := pool[r.Intn(card)]
	for i := range col {
		if !runs || r.Intn(16) == 0 {
			v = pool[r.Intn(card)]
		}
		col[i] = v
	}
	return col
}

// TestCompressMatchesOracle: the map-free encoder returns chunks
// reflect.DeepEqual to the map-based one — same encoding, same code order,
// same nil-vs-empty slices — on random columns across every hint, column
// lengths from 1 to a default bucket, cardinalities from 1 to four times
// MaxDictSize and value ranges from 1 to 64 bits.
func TestCompressMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	sizes := []int{1, 2, 3, 17, 63, 64, 65, 100, 256, 1000, 3072}
	cards := []int{1, 2, 3, 4, 5, 16, 17, 100, MaxDictSize - 1, MaxDictSize, MaxDictSize + 1, 4 * MaxDictSize}
	rangesBits := []int{1, 2, 7, 8, 9, 16, 31, 32, 33, 48, 63, 64}
	var encs [NumEnc]int
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for it := 0; it < iters; it++ {
		n := sizes[r.Intn(len(sizes))]
		col := oracleColumn(r, n, cards[r.Intn(len(cards))], rangesBits[r.Intn(len(rangesBits))], r.Intn(2) == 0)
		for _, hint := range []Hint{HintUint, HintInt, HintFloat} {
			got, want := Compress(col, n, hint), CompressOracle(col, n, hint)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d n=%d hint %d: got %v chunk %+v, oracle %v chunk %+v",
					it, n, hint, got.Enc, got, want.Enc, want)
			}
			encs[got.Enc]++
		}
	}
	for e, c := range encs {
		if c == 0 {
			t.Errorf("encoding %v never chosen: the generator misses a shape", Enc(e))
		}
	}
}

// TestCompressTableReuse: a dictionary attempt that overflows or loses must
// leave the pooled table clean for the next call, whatever it held.
func TestCompressTableReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for it := 0; it < 500; it++ {
		// An overflowing column, then a small dictionary sharing some values.
		wide := oracleColumn(r, 1024, 4*MaxDictSize, 64, false)
		Compress(wide, len(wide), HintUint)
		small := make([]uint64, 512)
		for i := range small {
			small[i] = wide[r.Intn(8)]
		}
		got, want := Compress(small, len(small), HintUint), CompressOracle(small, len(small), HintUint)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: got %v, oracle %v", it, got.Enc, want.Enc)
		}
	}
}
