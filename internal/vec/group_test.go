package vec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// groupCase is one random input for the group kernels: n records over ng
// group ids, a column of awkward bit patterns and a selection.
type groupCase struct {
	name  string
	gid   []int32
	idx   []int32 // nil = every record
	byRun bool
	col   []uint64
	ng    int
}

// sel returns the selected record indices in order.
func (c *groupCase) sel() []int32 {
	if c.idx != nil {
		return c.idx
	}
	all := make([]int32, len(c.gid))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

func groupCases() []groupCase {
	rng := rand.New(rand.NewSource(11))
	edge := []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, math.Float64bits(-0.0), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), math.Float64bits(1e300), math.Float64bits(-1e-300)}
	var out []groupCase
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, ng := range []int{1, 3, 200} {
			col := make([]uint64, n)
			for i := range col {
				if rng.Intn(4) == 0 {
					col[i] = edge[rng.Intn(len(edge))]
				} else {
					col[i] = math.Float64bits((rng.Float64() - 0.5) * 1e9)
				}
			}
			random := make([]int32, n)
			runs := make([]int32, n)
			g := int32(rng.Intn(ng))
			for i := range random {
				random[i] = int32(rng.Intn(ng))
				if rng.Intn(9) == 0 {
					g = int32(rng.Intn(ng))
				}
				runs[i] = g
			}
			var idx []int32
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					idx = append(idx, int32(i))
				}
			}
			if idx == nil {
				idx = []int32{} // selected nothing, which is not "every record"
			}
			name := func(s string) string { return fmt.Sprintf("%s/n=%d/ng=%d", s, n, ng) }
			out = append(out,
				groupCase{name("all"), random, nil, false, col, ng},
				groupCase{name("all-runs"), runs, nil, false, col, ng},
				groupCase{name("byRun"), runs, nil, true, col, ng},
				groupCase{name("byRun-short"), random, nil, true, col, ng},
				groupCase{name("idx"), random, idx, false, col, ng},
			)
		}
	}
	return out
}

// sameFloat is bit equality, except that any NaN equals any NaN: which
// operand's payload an addition of two NaNs keeps is the compiler's choice.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestGroupCountMatchesScalar(t *testing.T) {
	for _, c := range groupCases() {
		cnt := make([]int64, c.ng)
		cnt[0] = 7 // a gid counted before is not touched again
		want := append([]int64(nil), cnt...)
		var wantTouched []int32
		for _, i := range c.sel() {
			g := c.gid[i]
			if want[g] == 0 {
				wantTouched = append(wantTouched, g)
			}
			want[g]++
		}
		touched := make([]int32, c.ng+1)
		k := GroupCount(c.gid, c.idx, c.byRun, cnt, touched)
		if !reflect.DeepEqual(cnt, want) {
			t.Errorf("%s: counts %v, want %v", c.name, cnt, want)
		}
		if got := touched[:k]; len(got) != len(wantTouched) || (k > 0 && !reflect.DeepEqual(got, wantTouched)) {
			t.Errorf("%s: touched %v, want %v", c.name, got, wantTouched)
		}
	}
}

// TestGroupFoldKernelsMatchScalar checks each sum, min and max kernel
// against a record-at-a-time fold with the same value conversion. Sums
// compare bit for bit: the kernels promise the scalar order of additions.
func TestGroupFoldKernelsMatchScalar(t *testing.T) {
	asInt := func(x uint64) float64 { return float64(int64(x)) }
	asUint := func(x uint64) float64 { return float64(x) }
	asFloat := math.Float64frombits
	add := func(acc, v float64) float64 { return acc + v }
	lower := func(acc, v float64) float64 {
		if v < acc {
			return v
		}
		return acc
	}
	raise := func(acc, v float64) float64 {
		if v > acc {
			return v
		}
		return acc
	}
	type sumKernel func(col []uint64, idx, gid []int32, byRun bool, acc []float64)
	plain := func(k func(col []uint64, idx, gid []int32, acc []float64)) sumKernel {
		return func(col []uint64, idx, gid []int32, _ bool, acc []float64) { k(col, idx, gid, acc) }
	}
	kernels := []struct {
		name string
		run  sumKernel
		conv func(uint64) float64
		fold func(acc, v float64) float64
		init float64
	}{
		{"GroupSumInt", GroupSumInt, asInt, add, 0.25},
		{"GroupSumUint", GroupSumUint, asUint, add, 0.25},
		{"GroupSumFloat", GroupSumFloat, asFloat, add, 0.25},
		{"GroupMinInt", plain(GroupMinInt), asInt, lower, math.Inf(1)},
		{"GroupMinUint", plain(GroupMinUint), asUint, lower, math.Inf(1)},
		{"GroupMinFloat", plain(GroupMinFloat), asFloat, lower, math.Inf(1)},
		{"GroupMaxInt", plain(GroupMaxInt), asInt, raise, math.Inf(-1)},
		{"GroupMaxUint", plain(GroupMaxUint), asUint, raise, math.Inf(-1)},
		{"GroupMaxFloat", plain(GroupMaxFloat), asFloat, raise, math.Inf(-1)},
	}
	for _, k := range kernels {
		for _, c := range groupCases() {
			acc := make([]float64, c.ng)
			want := make([]float64, c.ng)
			for g := range acc {
				acc[g], want[g] = k.init, k.init
			}
			for _, i := range c.sel() {
				want[c.gid[i]] = k.fold(want[c.gid[i]], k.conv(c.col[i]))
			}
			k.run(c.col, c.idx, c.gid, c.byRun, acc)
			for g := range acc {
				if !sameFloat(acc[g], want[g]) {
					t.Errorf("%s %s: acc[%d] = %v, want %v", k.name, c.name, g, acc[g], want[g])
					break
				}
			}
		}
	}
}

func TestGatherKernelsMatchScalar(t *testing.T) {
	for _, c := range groupCases() {
		if c.idx == nil {
			continue
		}
		dst := make([]float64, len(c.idx))
		for name, k := range map[string]struct {
			run  func(col []uint64, idx []int32, dst []float64)
			conv func(uint64) float64
		}{
			"GatherInt":   {GatherInt, func(x uint64) float64 { return float64(int64(x)) }},
			"GatherUint":  {GatherUint, func(x uint64) float64 { return float64(x) }},
			"GatherFloat": {GatherFloat, math.Float64frombits},
		} {
			k.run(c.col, c.idx, dst)
			for j, i := range c.idx {
				if !sameFloat(dst[j], k.conv(c.col[i])) {
					t.Errorf("%s %s: dst[%d] = %v, want %v", name, c.name, j, dst[j], k.conv(c.col[i]))
					break
				}
			}
		}
	}
}
