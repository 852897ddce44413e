package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// chunkShape generates a column with a characteristic value distribution so
// every encoding (and the raw fallback) gets exercised.
type chunkShape struct {
	name string
	gen  func(r *rand.Rand, n int) []uint64
}

var chunkShapes = []chunkShape{
	{"const", func(r *rand.Rand, n int) []uint64 {
		v := r.Uint64()
		col := make([]uint64, n)
		for i := range col {
			col[i] = v
		}
		return col
	}},
	{"smallrange", func(r *rand.Rand, n int) []uint64 {
		base := r.Uint64()
		col := make([]uint64, n)
		for i := range col {
			col[i] = base + uint64(r.Intn(1000))
		}
		return col
	}},
	{"negatives", func(r *rand.Rand, n int) []uint64 {
		col := make([]uint64, n)
		for i := range col {
			col[i] = uint64(int64(r.Intn(2000) - 1000))
		}
		return col
	}},
	{"lowcard", func(r *rand.Rand, n int) []uint64 {
		vals := make([]uint64, 7)
		for i := range vals {
			vals[i] = r.Uint64()
		}
		col := make([]uint64, n)
		for i := range col {
			col[i] = vals[r.Intn(len(vals))]
		}
		return col
	}},
	{"runs", func(r *rand.Rand, n int) []uint64 {
		col := make([]uint64, n)
		v := r.Uint64()
		for i := range col {
			if r.Intn(40) == 0 {
				v = r.Uint64()
			}
			col[i] = v
		}
		return col
	}},
	{"random", func(r *rand.Rand, n int) []uint64 {
		col := make([]uint64, n)
		for i := range col {
			col[i] = r.Uint64()
		}
		return col
	}},
	{"straddle63", func(r *rand.Rand, n int) []uint64 {
		// Values around 2^63: unsigned range is tiny, signed range is huge.
		col := make([]uint64, n)
		for i := range col {
			col[i] = 1<<63 - 32 + uint64(r.Intn(64))
		}
		return col
	}},
	{"floats", func(r *rand.Rand, n int) []uint64 {
		col := make([]uint64, n)
		for i := range col {
			switch r.Intn(10) {
			case 0:
				col[i] = math.Float64bits(math.NaN())
			case 1:
				col[i] = math.Float64bits(math.Inf(1 - 2*r.Intn(2)))
			case 2:
				col[i] = math.Float64bits(math.Copysign(0, -1))
			default:
				col[i] = math.Float64bits(float64(r.Intn(100)) / 10)
			}
		}
		return col
	}},
}

var chunkSizes = []int{1, 5, 63, 64, 65, 127, 192, 1000, 3072}

// operand values that probe in-range, out-of-range and edge cases.
func cmpOperands(col []uint64) []uint64 {
	ops := []uint64{0, 1, ^uint64(0), 1 << 63, math.Float64bits(1.5), math.Float64bits(math.NaN())}
	ops = append(ops, col[0], col[len(col)/2], col[len(col)-1])
	mn, mx := col[0], col[0]
	for _, v := range col {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return append(ops, mn, mn-1, mx, mx+1)
}

// TestChunkRoundTrip: Decompress and ChunkValue recover the exact bit
// patterns for every shape, size and hint.
func TestChunkRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, sh := range chunkShapes {
		for _, n := range chunkSizes {
			col := sh.gen(r, n)
			for _, hint := range []Hint{HintUint, HintInt, HintFloat} {
				ch := Compress(col, n, hint)
				if ch.N != n {
					t.Fatalf("%s/%d hint %d: N=%d", sh.name, n, hint, ch.N)
				}
				got := Decompress(&ch, nil)
				for i := range col {
					if got[i] != col[i] {
						t.Fatalf("%s/%d hint %d enc %v: decompress[%d]=%#x want %#x",
							sh.name, n, hint, ch.Enc, i, got[i], col[i])
					}
					if v := ChunkValue(&ch, i); v != col[i] {
						t.Fatalf("%s/%d hint %d enc %v: value[%d]=%#x want %#x",
							sh.name, n, hint, ch.Enc, i, v, col[i])
					}
				}
			}
		}
	}
}

// TestChunkEncodingChoice pins the cost model's picks on canonical shapes.
func TestChunkEncodingChoice(t *testing.T) {
	n := 1024
	constant := make([]uint64, n)
	for i := range constant {
		constant[i] = 7
	}
	if ch := Compress(constant, n, HintUint); ch.Enc != EncConst {
		t.Errorf("constant column: got %v want const", ch.Enc)
	}
	narrow := make([]uint64, n)
	for i := range narrow {
		narrow[i] = 1_000_000 + uint64(i%512)
	}
	if ch := Compress(narrow, n, HintUint); ch.Enc != EncFOR {
		t.Errorf("narrow-range column: got %v want for", ch.Enc)
	}
	// High-cardinality wide values but only 3 distinct: dictionary.
	lowcard := make([]uint64, n)
	vals := []uint64{1 << 60, 3 << 50, 9 << 40}
	for i := range lowcard {
		lowcard[i] = vals[i%3]
	}
	if ch := Compress(lowcard, n, HintUint); ch.Enc != EncDict {
		t.Errorf("low-cardinality column: got %v want dict", ch.Enc)
	}
	// Two long runs of wide values: RLE beats dict's packed code stream? No —
	// dict costs n/64 words for 1-bit codes; RLE costs ~3 words. RLE wins.
	runs := make([]uint64, n)
	for i := range runs {
		if i >= n/2 {
			runs[i] = 1 << 61
		} else {
			runs[i] = 5 << 33
		}
	}
	if ch := Compress(runs, n, HintUint); ch.Enc != EncRLE {
		t.Errorf("two-run column: got %v want rle", ch.Enc)
	}
	r := rand.New(rand.NewSource(9))
	random := make([]uint64, n)
	for i := range random {
		random[i] = r.Uint64()
	}
	if ch := Compress(random, n, HintUint); ch.Enc != EncRaw {
		t.Errorf("random column: got %v want raw", ch.Enc)
	}
	// Dictionary overflow: >MaxDictSize distinct wide values must not pick
	// dict (and must still round-trip via raw).
	over := make([]uint64, n)
	for i := range over {
		over[i] = r.Uint64()>>1 | 1<<62
	}
	ch := Compress(over, n, HintUint)
	if ch.Enc == EncDict {
		t.Errorf("dict overflow: picked dict for %d distinct values", n)
	}
	got := Decompress(&ch, nil)
	for i := range over {
		if got[i] != over[i] {
			t.Fatalf("dict-overflow roundtrip[%d]", i)
		}
	}
}

// TestChunkCmpBitExact: compressed compare kernels produce masks identical to
// the raw kernels — including zeroed tail bits past n and untouched extra
// mask words — for every shape × hint × operator × operand. Unsupported
// shapes must report false, never a wrong mask.
func TestChunkCmpBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, sh := range chunkShapes {
		for _, n := range chunkSizes {
			col := sh.gen(r, n)
			// One spare word past the mask proper catches stray writes.
			words := MaskWords(n) + 1
			want := make([]uint64, words)
			got := make([]uint64, words)
			for _, hint := range []Hint{HintUint, HintInt, HintFloat} {
				ch := Compress(col, n, hint)
				for op := Lt; op <= Ne; op++ {
					for _, v := range cmpOperands(col) {
						for i := range got {
							got[i] = ^uint64(0) // dirty — kernels must overwrite
							want[i] = ^uint64(0)
						}
						var ok bool
						switch hint {
						case HintInt:
							CmpInt(col, n, op, int64(v), want)
							ok = CmpChunkInt(&ch, n, op, int64(v), got)
						case HintUint:
							CmpUint(col, n, op, v, want)
							ok = CmpChunkUint(&ch, n, op, v, got)
						case HintFloat:
							f := math.Float64frombits(v)
							CmpFloat(col, n, op, f, want)
							ok = CmpChunkFloat(&ch, n, op, f, got)
						}
						if !ok {
							continue // fallback path; covered by decompress test
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s/%d hint %d enc %v op %v v=%#x: mask word %d = %#x want %#x",
									sh.name, n, hint, ch.Enc, op, v, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// feqBits: bit-exact for every real value (±0 stay distinct), with any NaN
// equal to any NaN. Which NaN payload survives an addition chain depends on
// operand order, and the compiler may legally allocate operands differently
// between builds (-race does), so payload equality is not a testable property.
func feqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestChunkAggBitExact: masked chunk aggregates equal the raw kernels bit for
// bit (float sums must match exactly, not approximately; NaN payloads exempt
// — see feqBits) under masks of varying density.
func TestChunkAggBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	densities := []float64{0, 0.02, 0.5, 0.97, 1}
	for _, sh := range chunkShapes {
		for _, n := range chunkSizes {
			col := sh.gen(r, n)
			words := MaskWords(n)
			mask := make([]uint64, words)
			for _, d := range densities {
				for i := 0; i < n; i++ {
					if r.Float64() < d {
						mask[i/64] |= 1 << uint(i%64)
					} else {
						mask[i/64] &^= 1 << uint(i%64)
					}
				}
				for _, hint := range []Hint{HintUint, HintInt, HintFloat} {
					ch := Compress(col, n, hint)
					if gotS := SumIntChunk(&ch, mask); gotS != SumInt(col, mask) {
						t.Fatalf("%s/%d d=%v enc %v: SumInt %d want %d",
							sh.name, n, d, ch.Enc, gotS, SumInt(col, mask))
					}
					if got, ok := SumFloatChunk(&ch, mask); ok {
						want := SumFloat(col, mask)
						if !feqBits(got, want) {
							t.Fatalf("%s/%d d=%v enc %v: SumFloat %v want %v",
								sh.name, n, d, ch.Enc, got, want)
						}
					} else if ch.Enc != EncFOR {
						t.Fatalf("%s/%d enc %v: SumFloat unsupported", sh.name, n, ch.Enc)
					}
					gv, ga := MinIntChunk(&ch, mask)
					wv, wa := MinInt(col, mask)
					if gv != wv || ga != wa {
						t.Fatalf("%s/%d d=%v enc %v: MinInt (%d,%v) want (%d,%v)",
							sh.name, n, d, ch.Enc, gv, ga, wv, wa)
					}
					gv, ga = MaxIntChunk(&ch, mask)
					wv, wa = MaxInt(col, mask)
					if gv != wv || ga != wa {
						t.Fatalf("%s/%d d=%v enc %v: MaxInt (%d,%v) want (%d,%v)",
							sh.name, n, d, ch.Enc, gv, ga, wv, wa)
					}
					if gf, gany, ok := MinFloatChunk(&ch, mask); ok {
						wf, wany := MinFloat(col, mask)
						if !feqBits(gf, wf) || gany != wany {
							t.Fatalf("%s/%d d=%v enc %v: MinFloat (%v,%v) want (%v,%v)",
								sh.name, n, d, ch.Enc, gf, gany, wf, wany)
						}
					}
					if gf, gany, ok := MaxFloatChunk(&ch, mask); ok {
						wf, wany := MaxFloat(col, mask)
						if !feqBits(gf, wf) || gany != wany {
							t.Fatalf("%s/%d d=%v enc %v: MaxFloat (%v,%v) want (%v,%v)",
								sh.name, n, d, ch.Enc, gf, gany, wf, wany)
						}
					}
				}
			}
		}
	}
}

// TestChunkCmpShortN: compare kernels honour n < ch.N (mask sized for n).
func TestChunkCmpShortN(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	col := chunkShapes[4].gen(r, 300) // runs
	ch := Compress(col, 300, HintUint)
	for _, n := range []int{1, 64, 65, 299} {
		want := make([]uint64, MaskWords(n))
		got := make([]uint64, MaskWords(n))
		CmpUint(col, n, Le, col[n/2], want)
		if !CmpChunkUint(&ch, n, Le, col[n/2], got) {
			t.Fatalf("n=%d: unsupported", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d word %d: %#x want %#x", n, i, got[i], want[i])
			}
		}
	}
}

// FuzzChunkKernels cross-checks compress/scan against the raw kernels, and
// Compress against its map-based oracle, on arbitrary byte-derived columns.
func FuzzChunkKernels(f *testing.F) {
	f.Add(int64(1), 100, uint8(0))
	f.Add(int64(99), 65, uint8(1))
	f.Add(int64(7), 3072, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n int, shape uint8) {
		if n <= 0 || n > 4096 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		col := chunkShapes[int(shape)%len(chunkShapes)].gen(r, n)
		for _, hint := range []Hint{HintUint, HintInt, HintFloat} {
			ch := Compress(col, n, hint)
			if want := CompressOracle(col, n, hint); !reflect.DeepEqual(ch, want) {
				t.Fatalf("hint %d: chunk %v differs from oracle %v", hint, ch.Enc, want.Enc)
			}
			got := Decompress(&ch, nil)
			for i := range col {
				if got[i] != col[i] {
					t.Fatalf("roundtrip[%d] enc %v", i, ch.Enc)
				}
			}
			mask := make([]uint64, MaskWords(n))
			for i := 0; i < n; i += 1 + r.Intn(3) {
				mask[i/64] |= 1 << uint(i%64)
			}
			if s := SumIntChunk(&ch, mask); s != SumInt(col, mask) {
				t.Fatalf("SumInt enc %v: %d want %d", ch.Enc, s, SumInt(col, mask))
			}
			v := col[r.Intn(n)]
			op := CmpOp(r.Intn(6))
			want := make([]uint64, MaskWords(n))
			gotM := make([]uint64, MaskWords(n))
			CmpUint(col, n, op, v, want)
			if CmpChunkUint(&ch, n, op, v, gotM) {
				for i := range want {
					if gotM[i] != want[i] {
						t.Fatalf("cmp enc %v op %v word %d", ch.Enc, op, i)
					}
				}
			}
		}
	})
}
