package aim

import (
	"sync"
	"testing"
	"time"
)

func demoSchema(t testing.TB) *Schema {
	t.Helper()
	sch, err := NewSchema().
		Static(StaticSpec{Name: "zip", Type: TypeInt64}).
		Group(GroupSpec{Name: "calls_today", Metric: MetricCount,
			Window: Day(), Aggs: []AggKind{AggCount}}).
		Group(GroupSpec{Name: "dur_today", Metric: MetricDuration,
			Window: Day(), Aggs: []AggKind{AggSum, AggMax}}).
		Group(GroupSpec{Name: "cost_week", Metric: MetricCost,
			Window: Week(), Aggs: []AggKind{AggSum}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func startDemo(t *testing.T, opts Options) (*System, *Schema) {
	t.Helper()
	sch := demoSchema(t)
	opts.Schema = sch
	if opts.BucketSize == 0 {
		opts.BucketSize = 32
	}
	if opts.FreshnessPause == 0 {
		opts.FreshnessPause = 200 * time.Microsecond
	}
	sys, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, sch
}

const dayMs = 24 * 3600 * 1000

func TestEndToEnd(t *testing.T) {
	sys, sch := startDemo(t, Options{Servers: 2, PartitionsPerServer: 2})
	base := int64(100 * dayMs)
	for i := 0; i < 300; i++ {
		err := sys.Ingest(Event{
			Caller: uint64(i%30) + 1, Callee: 2, Timestamp: base + int64(i),
			Duration: 60, Cost: 0.5, LongDistance: i%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(sch).Count().Sum("dur_today_sum").Build()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := sys.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 1 && res.Rows[0].Values[0] == 30 && res.Rows[0].Values[1] == 300*60 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: %+v", res)
		}
		time.Sleep(time.Millisecond)
	}
	// Stats cover both servers.
	var events uint64
	for _, st := range sys.Stats() {
		events += st.EventsProcessed
	}
	if events != 300 {
		t.Fatalf("stats events = %d", events)
	}
}

func TestQueryBuilderShapes(t *testing.T) {
	sys, sch := startDemo(t, Options{})
	base := int64(100 * dayMs)
	for i := 0; i < 50; i++ {
		if _, err := sys.IngestSync(Event{Caller: uint64(i%5) + 1, Timestamp: base + int64(i), Duration: int64(i + 1), Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Filtered, grouped, derived, limited.
	q, err := NewQuery(sch).
		Where(Gt("calls_today_count", 0)).
		Sum("cost_week_sum").Sum("dur_today_sum").
		GroupBy("calls_today_count").
		Ratio(0, 1).
		Limit(3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	waitRows(t, sys, q, 1)

	// ArgMax yields an entity id.
	q2, err := NewQuery(sch).ArgMax("dur_today_max").ArgMinRatio("cost_week_sum", "dur_today_sum").Build()
	if err != nil {
		t.Fatal(err)
	}
	res := waitRows(t, sys, q2, 1)
	if id := res.Rows[0].Values[0]; id < 1 || id > 5 {
		t.Fatalf("argmax entity = %v", id)
	}
}

func waitRows(t *testing.T, sys *System, q *Query, want int) *Result {
	t.Helper()
	res := waitResult(t, sys, q, func(r *Result) bool { return len(r.Rows) >= want })
	if len(res.Rows) < want {
		t.Fatalf("no rows for query")
	}
	return res
}

// waitResult polls q until done accepts its result or a 5 s deadline
// passes, and returns the last result either way so the caller's assertions
// report what it saw.
func waitResult(t *testing.T, sys *System, q *Query, done func(*Result) bool) *Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := sys.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if done(res) || time.Now().After(deadline) {
			return res
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStringAttributes(t *testing.T) {
	sch, err := NewSchema().
		Static(StaticSpec{Name: "plan", Type: TypeDictString}).
		Group(GroupSpec{Name: "calls_today", Metric: MetricCount,
			Window: Day(), Aggs: []AggKind{AggCount}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := sch.AttrIndex("plan")
	factory := func(id uint64) Record {
		rec := sch.NewRecord(id)
		if id%2 == 0 {
			sch.SetString(rec, plan, "contract")
		} else {
			sch.SetString(rec, plan, "prepaid")
		}
		return rec
	}
	sys, err := Start(Options{Schema: sch, Factory: factory, BucketSize: 16,
		FreshnessPause: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base := int64(100 * dayMs)
	for i := 0; i < 20; i++ {
		if _, err := sys.IngestSync(Event{Caller: uint64(i%10) + 1, Timestamp: base + int64(i), Duration: 10, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Filter by string.
	q, err := NewQuery(sch).Where(EqStr("plan", "contract")).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	// Queries read the mains as of the last merge (DESIGN.md §5), and each
	// partition merges on its own scan thread, so a count taken mid-merge
	// legally sees only part of the ingested entities: poll for the full one.
	res := waitResult(t, sys, q, func(r *Result) bool {
		return len(r.Rows) == 1 && r.Rows[0].Values[0] == 5
	})
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 5 {
		t.Fatalf("contract count = %+v, want 5", res.Rows)
	}
	// Group by string names.
	q2, err := NewQuery(sch).Count().GroupByString("plan").Build()
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitResult(t, sys, q2, func(r *Result) bool {
		return len(r.Rows) == 2 && r.Rows[0].Values[0] == 5 && r.Rows[1].Values[0] == 5
	})
	if len(res2.Rows) != 2 || res2.Rows[0].Key.S != "contract" || res2.Rows[1].Key.S != "prepaid" {
		t.Fatalf("string groups = %+v", res2.Rows)
	}
	// Unknown string matches nothing.
	q3, err := NewQuery(sch).Where(EqStr("plan", "nope")).Count().Build()
	if err != nil {
		t.Fatal(err)
	}
	res3, err := sys.Execute(q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 0 {
		t.Fatalf("unknown plan matched: %+v", res3.Rows)
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	sch := demoSchema(t)
	if _, err := NewQuery(sch).Sum("nope").Build(); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := NewQuery(sch).Where().Count().Build(); err == nil {
		t.Fatal("empty Where accepted")
	}
	if _, err := NewQuery(sch).Build(); err == nil {
		t.Fatal("projection-less query accepted")
	}
}

func TestRulesAndFirings(t *testing.T) {
	sch := demoSchema(t)
	calls, err := sch.AttrIndex("calls_today_count")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := 0
	sys, err := Start(Options{
		Schema:     sch,
		BucketSize: 32,
		Rules: []Rule{{
			ID: 1, Name: "threshold", Action: "notify",
			Conjuncts: []RuleConjunct{{
				{Kind: RuleAttr, Attr: calls, Op: RuleGe, Value: 2},
				{Kind: RuleEventDuration, Op: RuleGt, Value: 30},
			}},
		}},
		OnFiring: func(Firing) { mu.Lock(); fired++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base := int64(100 * dayMs)
	total := 0
	for i := 0; i < 4; i++ {
		nf, err := sys.IngestSync(Event{Caller: 7, Timestamp: base + int64(i), Duration: 60, Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		total += nf
	}
	if total != 3 { // events 2,3,4
		t.Fatalf("firings = %d, want 3", total)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 3 {
		t.Fatalf("sink saw %d", fired)
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	sys, sch := startDemo(t, Options{Servers: 3})
	rec := sch.NewRecord(99)
	zip, _ := sch.AttrIndex("zip")
	rec.SetInt(zip, 8057)
	if err := sys.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, v, ok, err := sys.Get(99)
	if err != nil || !ok || got.Int(zip) != 8057 {
		t.Fatalf("Get: %v %v %v", ok, err, got)
	}
	if err := sys.ConditionalPut(got, v); err != nil {
		t.Fatal(err)
	}
	if err := sys.ConditionalPut(got, v); err == nil {
		t.Fatal("stale conditional put accepted")
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Fatal("Start without schema succeeded")
	}
}
