package vec

// CompressOracle is the map-based encoder Compress replaced, kept verbatim
// as the reference: Compress must return a chunk reflect.DeepEqual to this
// one for every column and hint. It finds dictionary candidates with a Go
// map in the analysis pass and looks every value up again to pack codes.
func CompressOracle(col []uint64, n int, hint Hint) Chunk {
	if n == 0 {
		return Chunk{Enc: EncConst, Hint: hint}
	}
	col = col[:n]
	first := col[0]
	runs := 1
	minU, maxU := first, first
	distinct := map[uint64]uint32{first: 0}
	dictOK := true
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
		if dictOK {
			if _, ok := distinct[v]; !ok {
				if len(distinct) >= MaxDictSize {
					dictOK = false
				} else {
					distinct[v] = uint32(len(distinct))
				}
			}
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
	var dictWidth uint8
	if dictOK {
		dictWidth = widthFor(uint64(len(distinct) - 1))
		if c := packedWords(n, dictWidth) + len(distinct) + 2; c < bestCost {
			bestCost, bestEnc = c, EncDict
		}
	}
	if c := runs + (runs+1)/2 + 2; c < bestCost {
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
		dict := make([]uint64, len(distinct))
		for v, c := range distinct {
			dict[c] = v
		}
		packed := make([]uint64, packedWords(n, dictWidth))
		per := 64 / uint(dictWidth)
		for i, v := range col {
			k := uint(i)
			packed[k/per] |= uint64(distinct[v]) << (k % per * uint(dictWidth))
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
