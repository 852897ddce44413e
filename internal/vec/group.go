package vec

import "math"

// Grouped aggregation kernels: phase two of the query engine's group-by.
// Phase one has mapped every record of the bucket to a dense group id (gid,
// one int32 per record); each kernel folds one column into one dense
// accumulator array indexed by gid, in record order, with the value type
// fixed per kernel so the loop body holds no dispatch.
//
// idx selects the records to fold, as produced by Indices; a nil idx means
// every record (the match-all fast path, which never materializes indices).
// Accumulators are float64 because that is what a query Cell holds; adding
// float64(value) record by record is what keeps a grouped sum bit-identical
// to a row-at-a-time evaluation. The caller sizes acc and cnt past the
// largest gid.
//
// acc[g] += v through memory makes each record of a group wait for the
// previous one's store to forward, several times the latency of the add
// itself, and a skewed group column (most records in one group) serializes
// the whole bucket on it. The count and sum kernels therefore have a byRun
// mode for the match-all path: they walk the gid vector run by run (a run
// is a stretch of equal adjacent gids) with the run's accumulator in a
// register. The caller asks for it only when runs are long enough to pay
// for the extra compare and the mispredicted branch at each run's end; min
// and max store rarely and need no such mode.

// GroupCount adds one to cnt[gid[i]] for every selected record and records
// each gid whose count was zero before in touched, in first-seen order. It
// returns how many gids it recorded. touched must hold one more element
// than there are distinct gids: the store is unconditional and only the
// cursor is data-dependent.
func GroupCount(gid, idx []int32, byRun bool, cnt []int64, touched []int32) int {
	k := 0
	switch {
	case idx != nil:
		for _, i := range idx {
			g := gid[i]
			c := cnt[g]
			touched[k] = g
			if c == 0 {
				k++
			}
			cnt[g] = c + 1
		}
	case byRun:
		for i := 0; i < len(gid); {
			g := gid[i]
			j := i + 1
			for j < len(gid) && gid[j] == g {
				j++
			}
			c := cnt[g]
			touched[k] = g
			if c == 0 {
				k++
			}
			cnt[g] = c + int64(j-i)
			i = j
		}
	default:
		for _, g := range gid {
			c := cnt[g]
			touched[k] = g
			if c == 0 {
				k++
			}
			cnt[g] = c + 1
		}
	}
	return k
}

// GroupSumInt adds the int64-typed column values into acc[gid].
func GroupSumInt(col []uint64, idx, gid []int32, byRun bool, acc []float64) {
	switch {
	case idx != nil:
		for _, i := range idx {
			acc[gid[i]] += float64(int64(col[i]))
		}
	case byRun:
		col = col[:len(gid)]
		for i := 0; i < len(gid); {
			g := gid[i]
			s := acc[g]
			for ; i < len(gid) && gid[i] == g; i++ {
				s += float64(int64(col[i]))
			}
			acc[g] = s
		}
	default:
		col = col[:len(gid)]
		for i, g := range gid {
			acc[g] += float64(int64(col[i]))
		}
	}
}

// GroupSumUint adds the uint64-typed column values into acc[gid].
func GroupSumUint(col []uint64, idx, gid []int32, byRun bool, acc []float64) {
	switch {
	case idx != nil:
		for _, i := range idx {
			acc[gid[i]] += float64(col[i])
		}
	case byRun:
		col = col[:len(gid)]
		for i := 0; i < len(gid); {
			g := gid[i]
			s := acc[g]
			for ; i < len(gid) && gid[i] == g; i++ {
				s += float64(col[i])
			}
			acc[g] = s
		}
	default:
		col = col[:len(gid)]
		for i, g := range gid {
			acc[g] += float64(col[i])
		}
	}
}

// GroupSumFloat adds the float64-typed column values into acc[gid].
func GroupSumFloat(col []uint64, idx, gid []int32, byRun bool, acc []float64) {
	switch {
	case idx != nil:
		for _, i := range idx {
			acc[gid[i]] += math.Float64frombits(col[i])
		}
	case byRun:
		col = col[:len(gid)]
		for i := 0; i < len(gid); {
			g := gid[i]
			s := acc[g]
			for ; i < len(gid) && gid[i] == g; i++ {
				s += math.Float64frombits(col[i])
			}
			acc[g] = s
		}
	default:
		col = col[:len(gid)]
		for i, g := range gid {
			acc[g] += math.Float64frombits(col[i])
		}
	}
}

// GroupMinInt lowers acc[gid] to the int64-typed column values.
func GroupMinInt(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := float64(int64(col[i])); v < acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := float64(int64(col[i])); v < acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GroupMinUint lowers acc[gid] to the uint64-typed column values.
func GroupMinUint(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := float64(col[i]); v < acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := float64(col[i]); v < acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GroupMinFloat lowers acc[gid] to the float64-typed column values. NaN
// never wins a comparison, as in MinFloat.
func GroupMinFloat(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := math.Float64frombits(col[i]); v < acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := math.Float64frombits(col[i]); v < acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GroupMaxInt raises acc[gid] to the int64-typed column values.
func GroupMaxInt(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := float64(int64(col[i])); v > acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := float64(int64(col[i])); v > acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GroupMaxUint raises acc[gid] to the uint64-typed column values.
func GroupMaxUint(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := float64(col[i]); v > acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := float64(col[i]); v > acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GroupMaxFloat raises acc[gid] to the float64-typed column values.
func GroupMaxFloat(col []uint64, idx, gid []int32, acc []float64) {
	if idx == nil {
		col = col[:len(gid)]
		for i, g := range gid {
			if v := math.Float64frombits(col[i]); v > acc[g] {
				acc[g] = v
			}
		}
		return
	}
	for _, i := range idx {
		if v := math.Float64frombits(col[i]); v > acc[gid[i]] {
			acc[gid[i]] = v
		}
	}
}

// GatherInt writes float64(int64(col[i])) for every i in idx to dst, which
// must hold len(idx) values. The Gather kernels hoist the value-type switch
// out of the arg aggregates' per-record loop.
func GatherInt(col []uint64, idx []int32, dst []float64) {
	dst = dst[:len(idx)]
	for k, i := range idx {
		dst[k] = float64(int64(col[i]))
	}
}

// GatherUint writes float64(col[i]) for every i in idx to dst.
func GatherUint(col []uint64, idx []int32, dst []float64) {
	dst = dst[:len(idx)]
	for k, i := range idx {
		dst[k] = float64(col[i])
	}
}

// GatherFloat writes the float64 stored in col[i] for every i in idx to dst.
func GatherFloat(col []uint64, idx []int32, dst []float64) {
	dst = dst[:len(idx)]
	for k, i := range idx {
		dst[k] = math.Float64frombits(col[i])
	}
}
