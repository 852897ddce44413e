package bench

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/vec"
	"repro/internal/workload"
)

// TestKernelGuard gates the hot-kernel regressions this PR's rewrite fixed:
//
//  1. CmpUint and CmpFloat must stay in the same league as CmpInt per
//     element. The closure-dispatching kernels they replaced ran 3.9-4.7x
//     CmpInt, so the 2x band catches that class of regression with plenty
//     of headroom for the shared 1-core VM's ~30% noise (see BENCH_3).
//  2. Split-phase batched apply (ingest per event + one materialize per
//     run) must not be slower than eager per-event apply on coalesced
//     runs — if it is, the deferred-materialize plumbing has broken.
//  3. The grouped scan must stay columnar: match-all Q3 (GROUP BY with two
//     sums) may cost at most 4x a match-all global SUM of Q3's first column
//     per record. The per-record map probe and type switch it replaced ran
//     >15x.
//
// Timing-sensitive, so it only runs under AIM_KERNEL_GUARD=1
// (`make kernel-guard`).
func TestKernelGuard(t *testing.T) {
	if os.Getenv("AIM_KERNEL_GUARD") != "1" {
		t.Skip("set AIM_KERNEL_GUARD=1 to run the kernel regression guard")
	}

	// --- Compare kernels, interleaved best-of-5 so frequency drift hits all
	// three the same way.
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	icol := make([]uint64, n)
	fcol := make([]uint64, n)
	for i := range icol {
		icol[i] = uint64(rng.Int63n(1000))
		fcol[i] = math.Float64bits(float64(rng.Int63n(1000)) / 8)
	}
	mask := make([]uint64, vec.MaskWords(n))
	var intBest, uintBest, floatBest float64
	for round := 0; round < 5; round++ {
		intNs := cmpKernelNs(func(op vec.CmpOp) { vec.CmpInt(icol, n, op, 500, mask) })
		uintNs := cmpKernelNs(func(op vec.CmpOp) { vec.CmpUint(icol, n, op, 500, mask) })
		floatNs := cmpKernelNs(func(op vec.CmpOp) { vec.CmpFloat(fcol, n, op, 62.5, mask) })
		if round == 0 || intNs < intBest {
			intBest = intNs
		}
		if round == 0 || uintNs < uintBest {
			uintBest = uintNs
		}
		if round == 0 || floatNs < floatBest {
			floatBest = floatNs
		}
	}
	t.Logf("CmpInt %.3f ns/elem, CmpUint %.3f (%.2fx), CmpFloat %.3f (%.2fx)",
		intBest, uintBest, uintBest/intBest, floatBest, floatBest/intBest)
	const cmpBand = 2.0
	if uintBest > cmpBand*intBest {
		t.Errorf("CmpUint %.3f ns/elem is %.2fx CmpInt (%.3f): per-element dispatch has crept back in",
			uintBest, uintBest/intBest, intBest)
	}
	if floatBest > cmpBand*intBest {
		t.Errorf("CmpFloat %.3f ns/elem is %.2fx CmpInt (%.3f): per-element dispatch has crept back in",
			floatBest, floatBest/intBest, intBest)
	}

	// --- Compressed-chunk compares: scanning the cold tier's FOR and dict
	// encodings in place must stay within the tiered scan-penalty budget.
	// End to end the frozen path is measured by e2ebench's hotkey_tiered
	// workload; at kernel grain we allow 3x CmpInt so scheduler noise on
	// the shared host can't flake the guard, while still catching the
	// regression class where per-element decode falls back to dispatch or
	// materialization (those run >5x).
	forCol := make([]uint64, n)
	dictCol := make([]uint64, n)
	for i := range forCol {
		forCol[i] = uint64(rng.Int63n(1000))
		dictCol[i] = uint64(rng.Intn(16)) * 977
	}
	forCh := vec.Compress(forCol, n, vec.HintInt)
	dictCh := vec.Compress(dictCol, n, vec.HintInt)
	if forCh.Enc != vec.EncFOR || dictCh.Enc != vec.EncDict {
		t.Fatalf("guard columns compressed as %v/%v, want for/dict", forCh.Enc, dictCh.Enc)
	}
	var forBest, dictBest float64
	for round := 0; round < 5; round++ {
		forNs := cmpKernelNs(func(op vec.CmpOp) { vec.CmpChunkInt(&forCh, n, op, 500, mask) })
		dictNs := cmpKernelNs(func(op vec.CmpOp) { vec.CmpChunkInt(&dictCh, n, op, 500, mask) })
		if round == 0 || forNs < forBest {
			forBest = forNs
		}
		if round == 0 || dictNs < dictBest {
			dictBest = dictNs
		}
	}
	t.Logf("CmpChunkInt for %.3f ns/elem (%.2fx), dict %.3f (%.2fx)",
		forBest, forBest/intBest, dictBest, dictBest/intBest)
	const chunkBand = 3.0
	if forBest > chunkBand*intBest {
		t.Errorf("CmpChunkInt/for %.3f ns/elem is %.2fx CmpInt (%.3f): packed-code compare loop regressed",
			forBest, forBest/intBest, intBest)
	}
	if dictBest > chunkBand*intBest {
		t.Errorf("CmpChunkInt/dict %.3f ns/elem is %.2fx CmpInt (%.3f): dictionary bitmap probe regressed",
			dictBest, dictBest/intBest, intBest)
	}

	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}

	// --- Grouped scan against a global SUM on one partition-sized matrix
	// (20 buckets of 3072 compact records, one applied event each),
	// interleaved best-of-5 like the compare kernels.
	dims, err := workload.BuildDimensions(7)
	if err != nil {
		t.Fatal(err)
	}
	const bucketSize, numBuckets = 3072, 20
	part := core.NewPartition(sch, bucketSize, dims.Factory(sch))
	egen := event.NewGenerator(bucketSize*numBuckets, 42)
	var pev event.Event
	for e := uint64(1); e <= bucketSize*numBuckets; e++ {
		egen.NextFor(&pev, e)
		part.ApplyEvent(&pev)
	}
	part.MergeStep()
	buckets := part.ScanSnapshot()
	qg, err := workload.NewQueryGen(sch, 7)
	if err != nil {
		t.Fatal(err)
	}
	q3 := qg.Q3()
	sum := &query.Query{ID: 1, Aggs: q3.Aggs[:1], GroupBy: -1}
	scanNs := func(q *query.Query) float64 {
		plan, err := query.CompileBatch(sch, []*query.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		ex := query.NewExecutor(sch, dims.Store)
		partials := []*query.Partial{query.NewPartial(q)}
		d := timeBest(3, func() {
			partials[0].Reset(q)
			for _, b := range buckets {
				if err := ex.ProcessBucketBatch(b, plan, partials); err != nil {
					t.Fatal(err)
				}
			}
		})
		return float64(d.Nanoseconds()) / (bucketSize * numBuckets)
	}
	var sumBest, q3Best float64
	for round := 0; round < 5; round++ {
		s, g := scanNs(sum), scanNs(q3)
		if round == 0 || s < sumBest {
			sumBest = s
		}
		if round == 0 || g < q3Best {
			q3Best = g
		}
	}
	t.Logf("match-all global SUM %.2f ns/record, match-all Q3 %.2f ns/record (%.2fx)",
		sumBest, q3Best, q3Best/sumBest)
	const groupBand = 4.0
	if q3Best > groupBand*sumBest {
		t.Errorf("match-all Q3 %.2f ns/record is %.2fx a global SUM (%.2f): per-record dispatch has crept back into the grouped scan",
			q3Best, q3Best/sumBest, sumBest)
	}

	// --- Split-phase apply on the 114-indicator schema: a deferred run of
	// 16 must beat eager per-event apply. The true gain is ~2x; requiring
	// only parity keeps the guard flake-free under a noisy scheduler.
	const nev = 50_000
	evs := make([]event.Event, nev)
	gen := event.NewGenerator(1, 42)
	for i := range evs {
		gen.NextFor(&evs[i], 1)
	}
	rec := sch.NewRecord(1)
	dirty := make([]uint64, sch.GroupMaskWords())
	var eagerBest, runBest float64
	for round := 0; round < 3; round++ {
		eager := timeBest(1, func() {
			for i := range evs {
				sch.Apply(rec, &evs[i])
			}
		})
		deferred := timeBest(1, func() {
			const runLen = 16
			for i := 0; i+runLen <= len(evs); i += runLen {
				for j := 0; j < runLen; j++ {
					sch.ApplyIngest(rec, &evs[i+j], dirty)
				}
				sch.MaterializeDirty(rec, dirty, nil)
			}
		})
		e := float64(eager.Nanoseconds()) / nev
		d := float64(deferred.Nanoseconds()) / nev
		if round == 0 || e < eagerBest {
			eagerBest = e
		}
		if round == 0 || d < runBest {
			runBest = d
		}
	}
	t.Logf("apply eager %.0f ns/event, deferred run=16 %.0f ns/event (%.2fx)",
		eagerBest, runBest, eagerBest/runBest)
	if runBest > eagerBest {
		t.Errorf("deferred batched apply (%.0f ns/event) slower than eager per-event (%.0f): split-phase path regressed",
			runBest, eagerBest)
	}
}

// TestKernelMicroSmoke checks the kernels experiment produces a well-formed
// table at tiny scale.
func TestKernelMicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel micro smoke is slow")
	}
	p := tinyParams()
	tbl, err := KernelMicro(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Fatalf("%d rows, want at least 10\n%s", len(tbl.Rows), tbl.String())
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
}
