// Compressed column chunks: the storage format of the cold tier.
//
// When the main ages a bucket out of the hot tier (internal/columnmap), each
// of its columns is compressed independently into a Chunk. The encoding is
// chosen per column per chunk by exact cost in 64-bit words over one analysis
// pass: Const for all-equal columns, frame-of-reference (FOR) bit-packing for
// narrow ranges, dictionary for low-cardinality columns, run-length for long
// runs, and a raw copy when nothing wins. The scan kernels in chunk_cmp.go /
// chunk_agg.go evaluate predicates and masked aggregates over these shapes
// directly, so cold buckets are scanned in place without materializing.
package vec

import (
	"math/bits"
	"sync"
)

// Hint tells the encoder how a column's 64-bit patterns are interpreted.
// FOR needs it to pick the base in the right order domain (signed vs
// unsigned); the compare kernels refuse a FOR chunk whose hint disagrees
// with the query's type and let the caller fall back to decompression.
type Hint uint8

const (
	// HintUint treats values as unsigned (entity ids, dict codes, opaque
	// slots). The safe default: every encoding it produces round-trips
	// bit-exactly regardless of the true type.
	HintUint Hint = iota
	// HintInt treats values as signed int64.
	HintInt
	// HintFloat treats values as float64 bit patterns. FOR is disabled
	// (mantissa entropy defeats it and the compare translation would be
	// order-broken); Const/Dict/RLE/Raw all remain bit-exact.
	HintFloat
)

// Enc identifies a chunk encoding.
type Enc uint8

const (
	EncRaw   Enc = iota // verbatim copy of the column
	EncConst            // every value identical (Base)
	EncFOR              // Base + bit-packed code, code width 1..32 bits
	EncDict             // bit-packed code into a value table
	EncRLE              // run values + cumulative run ends
)

// String implements fmt.Stringer for bench tables and logs.
func (e Enc) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncConst:
		return "const"
	case EncFOR:
		return "for"
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	default:
		return "?"
	}
}

// NumEnc is the number of chunk encodings (for per-encoding stats arrays).
const NumEnc = 5

// MaxDictSize caps the dictionary: a column with more distinct values
// overflows the dictionary candidate and falls through to FOR/RLE/raw. 256
// keeps the compare kernels' code-match bitmap at four words.
const MaxDictSize = 256

// Chunk is one immutable compressed column of a frozen bucket.
type Chunk struct {
	Enc   Enc
	Hint  Hint
	N     int    // record count
	Width uint8  // FOR/Dict code width in bits: 1, 2, 4, 8, 16 or 32
	Base  uint64 // Const: the value; FOR: the minimum value (hint domain)
	// MaxCode is the largest FOR code (the value range); the compare
	// kernels use Base..Base+MaxCode for out-of-range short circuits.
	MaxCode uint64
	Packed  []uint64 // FOR/Dict bit-packed codes
	Dict    []uint64 // Dict value table, codes in first-appearance order
	Vals    []uint64 // RLE run values
	Ends    []uint32 // RLE cumulative run end indices; Ends[len-1] == N
	Words   []uint64 // Raw verbatim values
}

// Bytes returns the compressed payload size (excluding struct overhead).
func (ch *Chunk) Bytes() int64 {
	return int64(8*(len(ch.Packed)+len(ch.Dict)+len(ch.Vals)+len(ch.Words)) +
		4*len(ch.Ends))
}

// widthFor returns the smallest supported power-of-two bit width that holds
// maxCode, or 0 if maxCode needs more than 32 bits. Power-of-two widths mean
// codes never straddle a word boundary, so decode is one shift and mask.
func widthFor(maxCode uint64) uint8 {
	switch b := bits.Len64(maxCode); {
	case b <= 1:
		return 1
	case b <= 2:
		return 2
	case b <= 4:
		return 4
	case b <= 8:
		return 8
	case b <= 16:
		return 16
	case b <= 32:
		return 32
	}
	return 0
}

// packedWords returns the word count for n codes of the given width.
func packedWords(n int, width uint8) int {
	per := 64 / int(width)
	return (n + per - 1) / per
}

// Compress analyzes col[:n] and returns the cheapest encoding by exact cost
// in 64-bit words. Ties prefer the shape with the fastest direct scan kernel
// (Const > FOR > Dict > RLE > Raw). The result owns its memory: the caller
// may reuse or release col afterwards.
//
// One pass measures runs and range, which prices Const, FOR, RLE and Raw. A
// dictionary pass over a pooled open-addressed table follows only when a
// dictionary small enough to win is possible, and stops as soon as the
// column holds more distinct values than that.
func Compress(col []uint64, n int, hint Hint) Chunk {
	if n == 0 {
		return Chunk{Enc: EncConst, Hint: hint}
	}
	col = col[:n]
	first := col[0]
	runs := 1
	minU, maxU := first, first
	prev := first
	for _, v := range col[1:] {
		if v != prev {
			runs++
			prev = v
		}
		if v < minU {
			minU = v
		}
		if v > maxU {
			maxU = v
		}
	}
	if minU == maxU {
		return Chunk{Enc: EncConst, Hint: hint, N: n, Base: first}
	}

	// FOR candidate: base and range in the hint's order domain. The uint64
	// subtraction is exact mod 2^64, and a signed range always fits uint64,
	// so eligibility is just the bit length of the difference.
	var forWidth uint8
	var forBase, forRange uint64
	switch hint {
	case HintInt:
		minS, maxS := int64(first), int64(first)
		for _, v := range col[1:] {
			if sv := int64(v); sv < minS {
				minS = sv
			} else if sv > maxS {
				maxS = sv
			}
		}
		forBase, forRange = uint64(minS), uint64(maxS)-uint64(minS)
		forWidth = widthFor(forRange)
	case HintUint:
		forBase, forRange = minU, maxU-minU
		forWidth = widthFor(forRange)
	}

	bestCost, bestEnc := n, EncRaw
	if forWidth != 0 {
		if c := packedWords(n, forWidth) + 2; c < bestCost {
			bestCost, bestEnc = c, EncFOR
		}
	}
	rleCost := runs + (runs+1)/2 + 2
	// Dict must cost strictly less than Raw and FOR and at most RLE.
	var dt *dictTable
	if limit := dictLimit(n, min(bestCost, rleCost+1)); limit > 0 {
		dt = dictPool.Get().(*dictTable)
		defer dt.release()
		if dt.build(col, limit) {
			bestCost, bestEnc = packedWords(n, widthFor(uint64(dt.size-1)))+dt.size+2, EncDict
		}
	}
	if rleCost < bestCost {
		bestEnc = EncRLE
	}

	switch bestEnc {
	case EncFOR:
		packed := make([]uint64, packedWords(n, forWidth))
		per := 64 / uint(forWidth)
		for i, v := range col {
			k := uint(i)
			packed[k/per] |= (v - forBase) << (k % per * uint(forWidth))
		}
		return Chunk{Enc: EncFOR, Hint: hint, N: n, Width: forWidth,
			Base: forBase, MaxCode: forRange, Packed: packed}
	case EncDict:
		dictWidth := widthFor(uint64(dt.size - 1))
		dict := make([]uint64, dt.size)
		copy(dict, dt.vals[:dt.size])
		packed := make([]uint64, packedWords(n, dictWidth))
		per := 64 / uint(dictWidth)
		for i, v := range col {
			k := uint(i)
			packed[k/per] |= uint64(dt.code(v)) << (k % per * uint(dictWidth))
		}
		return Chunk{Enc: EncDict, Hint: hint, N: n, Width: dictWidth,
			Dict: dict, Packed: packed}
	case EncRLE:
		vals := make([]uint64, 0, runs)
		ends := make([]uint32, 0, runs)
		cur := col[0]
		for i := 1; i < n; i++ {
			if col[i] != cur {
				vals = append(vals, cur)
				ends = append(ends, uint32(i))
				cur = col[i]
			}
		}
		vals = append(vals, cur)
		ends = append(ends, uint32(n))
		return Chunk{Enc: EncRLE, Hint: hint, N: n, Vals: vals, Ends: ends}
	default:
		w := make([]uint64, n)
		copy(w, col)
		return Chunk{Enc: EncRaw, Hint: hint, N: n, Words: w}
	}
}

// dictLimit returns the most distinct values a dictionary over n records may
// hold while costing less than budget words, or 0 when even two values (the
// fewest a non-Const column has) cost too much. Cost grows with the distinct
// count, so the admissible counts are exactly 2..limit.
func dictLimit(n, budget int) int {
	limit := 0
	for _, b := range [...]struct{ width, lo, hi int }{{1, 2, 2}, {2, 3, 4}, {4, 5, 16}, {8, 17, MaxDictSize}} {
		d := min(b.hi, budget-1-2-packedWords(n, uint8(b.width)))
		if d < b.lo {
			break
		}
		limit = d
	}
	return limit
}

// dictSlotBits sizes the encoder's dictionary table: 1024 slots, four per
// admissible value, so linear probes stay short.
const dictSlotBits = 10

// dictTable is an open-addressed value -> code table reused across Compress
// calls. codes holds code+1 (0 marks an empty slot); codes are handed out in
// first-appearance order, vals[code] is the value and slots[code] where it
// sits, so release touches only the slots a call used.
type dictTable struct {
	keys  [1 << dictSlotBits]uint64
	codes [1 << dictSlotBits]uint16
	vals  [MaxDictSize]uint64
	slots [MaxDictSize]uint16
	size  int
}

var dictPool = sync.Pool{New: func() any { return new(dictTable) }}

// home is v's first probe slot (Fibonacci hashing).
func (dt *dictTable) home(v uint64) uint {
	return uint(v * 0x9E3779B97F4A7C15 >> (64 - dictSlotBits))
}

// build assigns codes to col's distinct values in first-appearance order and
// reports whether there are at most limit of them.
func (dt *dictTable) build(col []uint64, limit int) bool {
	const mask = 1<<dictSlotBits - 1
	for _, v := range col {
		h := dt.home(v)
		for {
			c := dt.codes[h]
			if c == 0 {
				if dt.size == limit {
					return false
				}
				dt.keys[h] = v
				dt.codes[h] = uint16(dt.size + 1)
				dt.vals[dt.size] = v
				dt.slots[dt.size] = uint16(h)
				dt.size++
				break
			}
			if dt.keys[h] == v {
				break
			}
			h = (h + 1) & mask
		}
	}
	return true
}

// code returns the code build assigned to v, which must be in the table.
func (dt *dictTable) code(v uint64) uint16 {
	const mask = 1<<dictSlotBits - 1
	h := dt.home(v)
	for dt.keys[h] != v || dt.codes[h] == 0 {
		h = (h + 1) & mask
	}
	return dt.codes[h] - 1
}

// release empties the slots build used and returns the table to the pool.
func (dt *dictTable) release() {
	for _, s := range dt.slots[:dt.size] {
		dt.codes[s] = 0
	}
	dt.size = 0
	dictPool.Put(dt)
}

// Decompress materializes the chunk into dst (grown if needed) and returns
// the n-value slice. Decode is sign-agnostic: FOR adds Base + code mod 2^64,
// recovering the original bits for every hint.
func Decompress(ch *Chunk, dst []uint64) []uint64 {
	if cap(dst) < ch.N {
		dst = make([]uint64, ch.N)
	}
	dst = dst[:ch.N]
	switch ch.Enc {
	case EncRaw:
		copy(dst, ch.Words)
	case EncConst:
		for i := range dst {
			dst[i] = ch.Base
		}
	case EncFOR:
		per := 64 / uint(ch.Width)
		vm := uint64(1)<<ch.Width - 1
		for i := range dst {
			k := uint(i)
			dst[i] = ch.Base + ch.Packed[k/per]>>(k%per*uint(ch.Width))&vm
		}
	case EncDict:
		per := 64 / uint(ch.Width)
		vm := uint64(1)<<ch.Width - 1
		for i := range dst {
			k := uint(i)
			dst[i] = ch.Dict[ch.Packed[k/per]>>(k%per*uint(ch.Width))&vm]
		}
	case EncRLE:
		start := 0
		for ri, v := range ch.Vals {
			end := int(ch.Ends[ri])
			for i := start; i < end; i++ {
				dst[i] = v
			}
			start = end
		}
	}
	return dst
}

// ChunkValue returns record i's value — the random-access path used by
// point gathers (Get on a frozen bucket).
func ChunkValue(ch *Chunk, i int) uint64 {
	switch ch.Enc {
	case EncConst:
		return ch.Base
	case EncFOR:
		per := 64 / uint(ch.Width)
		k := uint(i)
		vm := uint64(1)<<ch.Width - 1
		return ch.Base + ch.Packed[k/per]>>(k%per*uint(ch.Width))&vm
	case EncDict:
		per := 64 / uint(ch.Width)
		k := uint(i)
		vm := uint64(1)<<ch.Width - 1
		return ch.Dict[ch.Packed[k/per]>>(k%per*uint(ch.Width))&vm]
	case EncRLE:
		lo, hi := 0, len(ch.Ends)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if int(ch.Ends[mid]) <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return ch.Vals[lo]
	default:
		return ch.Words[i]
	}
}

// maskSetRange sets mask bits [from, to).
func maskSetRange(mask []uint64, from, to int) {
	if from >= to {
		return
	}
	fw, lw := from/64, (to-1)/64
	fb := uint(from % 64)
	lbits := uint((to-1)%64) + 1
	if fw == lw {
		mask[fw] |= (^uint64(0) << fb) & (^uint64(0) >> (64 - lbits))
		return
	}
	mask[fw] |= ^uint64(0) << fb
	for i := fw + 1; i < lw; i++ {
		mask[i] = ^uint64(0)
	}
	mask[lw] |= ^uint64(0) >> (64 - lbits)
}

// maskCountRange counts set mask bits in [from, to).
func maskCountRange(mask []uint64, from, to int) int64 {
	if from >= to {
		return 0
	}
	fw, lw := from/64, (to-1)/64
	fb := uint(from % 64)
	lbits := uint((to-1)%64) + 1
	if fw == lw {
		w := mask[fw] >> fb << fb
		w = w << (64 - lbits) >> (64 - lbits)
		return int64(bits.OnesCount64(w))
	}
	n := int64(bits.OnesCount64(mask[fw] >> fb))
	for i := fw + 1; i < lw; i++ {
		n += int64(bits.OnesCount64(mask[i]))
	}
	n += int64(bits.OnesCount64(mask[lw] << (64 - lbits)))
	return n
}

// maskAnyRange reports whether any mask bit in [from, to) is set.
func maskAnyRange(mask []uint64, from, to int) bool {
	if from >= to {
		return false
	}
	fw, lw := from/64, (to-1)/64
	fb := uint(from % 64)
	lbits := uint((to-1)%64) + 1
	if fw == lw {
		return mask[fw]>>fb<<fb<<(64-lbits) != 0
	}
	if mask[fw]>>fb != 0 {
		return true
	}
	for i := fw + 1; i < lw; i++ {
		if mask[i] != 0 {
			return true
		}
	}
	return mask[lw]<<(64-lbits) != 0
}
