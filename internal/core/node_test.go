package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/vec"
)

func newTestNode(t testing.TB, cfg Config) *StorageNode {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = testSchema(t)
	}
	if cfg.BucketSize == 0 {
		cfg.BucketSize = 64
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// waitForCount polls the node until the global record count reaches want.
func waitForSum(t *testing.T, n *StorageNode, q *query.Query, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last float64
	for time.Now().Before(deadline) {
		p, err := n.SubmitQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Finalize(q)
		if len(res.Rows) > 0 {
			last = res.Rows[0].Values[0]
			if last == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %v, last saw %v", want, last)
}

func TestNodeEventToQueryPipeline(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 3, ESPThreads: 2})
	sch := n.Schema()
	calls := sch.MustAttrIndex("calls_today_count")

	const events = 500
	for i := 0; i < events; i++ {
		if err := n.ProcessEventAsync(mkEvent(uint64(i%37)+1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{ID: 1, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
	waitForSum(t, n, q, events)

	st := n.Stats()
	if st.EventsProcessed != events {
		t.Fatalf("EventsProcessed = %d", st.EventsProcessed)
	}
	if st.Records != 37 {
		t.Fatalf("Records = %d, want 37", st.Records)
	}
	if st.ScanRounds == 0 || st.MergedRecords == 0 || st.QueriesServed == 0 {
		t.Fatalf("stats not advancing: %+v", st)
	}
}

func TestNodeGetPutConditional(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 2})
	sch := n.Schema()
	zip := sch.MustAttrIndex("zip")

	rec := sch.NewRecord(42)
	rec.SetInt(zip, 8000)
	if err := n.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, v, ok, err := n.Get(42)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got.Int(zip) != 8000 {
		t.Fatalf("zip = %d", got.Int(zip))
	}
	got.SetInt(zip, 8001)
	if err := n.ConditionalPut(got, v); err != nil {
		t.Fatalf("ConditionalPut: %v", err)
	}
	if err := n.ConditionalPut(got, v); err == nil {
		t.Fatal("stale ConditionalPut succeeded")
	}
	if _, _, ok, _ := n.Get(4242); ok {
		t.Fatal("Get of unknown entity hit")
	}
}

func TestNodeProcessEventFiresRules(t *testing.T) {
	sch := testSchema(t)
	calls := sch.MustAttrIndex("calls_today_count")
	var mu sync.Mutex
	var fired []rules.Firing
	n := newTestNode(t, Config{
		Schema:     sch,
		Partitions: 2,
		Rules: []rules.Rule{{
			ID: 1, Action: "alert",
			Conjuncts: []rules.Conjunct{{{Kind: rules.LHSAttr, Attr: calls, Op: rules.Ge, Value: 3}}},
		}},
		OnFiring: func(f rules.Firing) {
			mu.Lock()
			fired = append(fired, f)
			mu.Unlock()
		},
	})
	var total int
	for i := 0; i < 5; i++ {
		nf, err := n.ProcessEvent(mkEvent(9, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		total += nf
	}
	// Events 3,4,5 (calls >= 3) fire.
	if total != 3 {
		t.Fatalf("firings = %d, want 3", total)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 3 || fired[0].EntityID != 9 || fired[0].Action != "alert" {
		t.Fatalf("sink saw %+v", fired)
	}
	if n.Stats().RuleFirings != 3 {
		t.Fatalf("RuleFirings = %d", n.Stats().RuleFirings)
	}
}

// TestBatchedIngestSamplesRuleEval checks the batched apply path feeds the
// rule-evaluation latency series, not only the event-apply one.
func TestBatchedIngestSamplesRuleEval(t *testing.T) {
	sch := testSchema(t)
	calls := sch.MustAttrIndex("calls_today_count")
	n := newTestNode(t, Config{
		Schema:     sch,
		Partitions: 2,
		Rules: []rules.Rule{{
			ID: 1, Action: "alert",
			Conjuncts: []rules.Conjunct{{{Kind: rules.LHSAttr, Attr: calls, Op: rules.Ge, Value: 3}}},
		}},
	})
	evs := make([]event.Event, 64)
	for i := range evs {
		evs[i] = mkEvent(uint64(i%8)+1, int64(i))
	}
	if err := n.ProcessEventBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := n.met.ruleEval.Count(); got == 0 {
		t.Fatal("aim_esp_rule_eval_seconds has no samples after batched ingest")
	}
	if got := n.met.eventApply.Count(); got == 0 {
		t.Fatal("aim_core_event_apply_seconds has no samples after batched ingest")
	}
}

func TestNodeQueryBatchSharing(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 2, MaxBatch: 8, IdleMergePause: 5 * time.Millisecond})
	sch := n.Schema()
	calls := sch.MustAttrIndex("calls_today_count")
	for i := 0; i < 100; i++ {
		if err := n.ProcessEventAsync(mkEvent(uint64(i%10)+1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{ID: 1, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
	waitForSum(t, n, q, 100)

	// Submit a burst of queries concurrently; they should be answered in
	// far fewer scan rounds than queries (shared scans).
	before := n.Stats().ScanRounds
	const burst = 32
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			qq := &query.Query{ID: id, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
			p, err := n.SubmitQuery(qq)
			if err != nil {
				t.Error(err)
				return
			}
			if got := p.Finalize(qq).Rows[0].Values[0]; got != 100 {
				t.Errorf("query %d saw %v", id, got)
			}
		}(uint64(i))
	}
	wg.Wait()
	rounds := n.Stats().ScanRounds - before
	if rounds >= burst {
		t.Fatalf("no scan sharing: %d rounds for %d queries", rounds, burst)
	}
}

// TestNodeBatchedRoundsMixedQueries drives several sequential rounds of
// concurrent mixed-shape batches (global, filtered, grouped, and exact
// duplicates) through the scan loop. Each round reuses the loop's pooled
// partials, so a stale accumulator or group-cache entry from a previous
// round would surface as a wrong result here.
func TestNodeBatchedRoundsMixedQueries(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 2, MaxBatch: 8, IdleMergePause: 5 * time.Millisecond})
	sch := n.Schema()
	calls := sch.MustAttrIndex("calls_today_count")
	zip := sch.MustAttrIndex("zip")
	// 10 entities x 10 events each.
	for i := 0; i < 100; i++ {
		if err := n.ProcessEventAsync(mkEvent(uint64(i%10)+1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	warm := &query.Query{ID: 999, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
	waitForSum(t, n, warm, 100)

	for round := 0; round < 3; round++ {
		base := uint64(round * 10)
		mk := func(id uint64) *query.Query {
			return &query.Query{ID: base + id, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
		}
		sum, sumDup := mk(1), mk(2) // exact duplicates -> folded, not rescanned
		filtered := &query.Query{
			ID:      base + 3,
			Where:   []query.Conjunct{{query.PredInt(calls, vec.Ge, 5)}},
			Aggs:    []query.AggExpr{{Op: query.OpCount}},
			GroupBy: -1,
		}
		grouped := &query.Query{
			ID:      base + 4,
			Aggs:    []query.AggExpr{{Op: query.OpCount}, {Op: query.OpSum, Attr: calls}},
			GroupBy: zip,
		}
		var wg sync.WaitGroup
		check := func(q *query.Query, verify func(*query.Result) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := n.SubmitQuery(q)
				if err != nil {
					t.Errorf("round %d query %d: %v", round, q.ID, err)
					return
				}
				if err := verify(p.Finalize(q)); err != nil {
					t.Errorf("round %d query %d: %v", round, q.ID, err)
				}
			}()
		}
		wantScalar := func(want float64) func(*query.Result) error {
			return func(r *query.Result) error {
				if len(r.Rows) != 1 || r.Rows[0].Values[0] != want {
					return fmt.Errorf("got %+v, want [%v]", r.Rows, want)
				}
				return nil
			}
		}
		check(sum, wantScalar(100))
		check(sumDup, wantScalar(100))
		check(filtered, wantScalar(10)) // all 10 entities have calls >= 5
		check(grouped, func(r *query.Result) error {
			// zip is never set: one group (zip=0), count 10, sum 100.
			if len(r.Rows) != 1 || r.Rows[0].Values[0] != 10 || r.Rows[0].Values[1] != 100 {
				return fmt.Errorf("got %+v, want one group [10 100]", r.Rows)
			}
			return nil
		})
		wg.Wait()
	}
}

func TestNodeQueryValidationAndErrors(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 1})
	if _, err := n.SubmitQuery(&query.Query{ID: 1, GroupBy: -1}); err == nil {
		t.Fatal("invalid query accepted")
	}
	// A dimension join against a missing table errors out at scan time.
	q := &query.Query{
		ID:       2,
		Aggs:     []query.AggExpr{{Op: query.OpCount}},
		GroupBy:  n.Schema().MustAttrIndex("zip"),
		GroupDim: &query.DimJoin{Table: "Nope", Column: "x"},
	}
	// Need at least one record so the scan actually evaluates the join.
	rec := n.Schema().NewRecord(1)
	if err := n.Put(rec); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let a merge round publish it
	if _, err := n.SubmitQuery(q); err == nil {
		t.Fatal("scan-time error not propagated")
	}
}

func TestNodeStop(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 2})
	if err := n.ProcessEventAsync(mkEvent(1, 0)); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	n.Stop() // idempotent
	if err := n.ProcessEventAsync(mkEvent(1, 1)); err != ErrStopped {
		t.Fatalf("ProcessEventAsync after Stop: %v", err)
	}
	if _, err := n.SubmitQuery(&query.Query{ID: 1, Aggs: []query.AggExpr{{Op: query.OpCount}}, GroupBy: -1}); err == nil {
		t.Fatal("SubmitQuery after Stop succeeded")
	}
	if err := n.FlushEvents(); err != ErrStopped {
		t.Fatalf("FlushEvents after Stop: %v", err)
	}
	if _, _, _, err := n.Get(1); err != ErrStopped {
		t.Fatalf("Get after Stop: %v", err)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("NewNode without schema succeeded")
	}
	// Defaults follow the paper's allocation rule: n = cores - s - 2,
	// floored at 1.
	n := newTestNode(t, Config{})
	want := runtime.NumCPU() - 1 - 2
	if want < 1 {
		want = 1
	}
	if n.NumPartitions() != want {
		t.Fatalf("default partitions = %d, want %d", n.NumPartitions(), want)
	}
}

// TestNodeFreshness checks the t_fresh KPI mechanism: an event becomes
// visible to queries within a bounded number of merge rounds.
func TestNodeFreshness(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 2, IdleMergePause: 200 * time.Microsecond})
	sch := n.Schema()
	calls := sch.MustAttrIndex("calls_today_count")
	start := time.Now()
	if _, err := n.ProcessEvent(mkEvent(1, 0)); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		ID:      1,
		Where:   []query.Conjunct{{query.PredInt(calls, vec.Ge, 1)}},
		Aggs:    []query.AggExpr{{Op: query.OpCount}},
		GroupBy: -1,
	}
	waitForSum(t, n, q, 1)
	if fresh := time.Since(start); fresh > time.Second {
		t.Fatalf("freshness %v exceeds the 1s KPI", fresh)
	}
}
