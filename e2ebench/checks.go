package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Coupling surface: workload.BuildDimensions/Factory/BuildRules (server
// seed 42), schema.Apply/VersionSlot, rules.NewEngine/Evaluate,
// query.Query/Result.

// serverSeed is aimserver's -seed default: dimensions and rules are
// generated from it on both sides.
const serverSeed = 42

const serverRules = 300

// checkOutcome is one output check of a run.
type checkOutcome struct {
	Name   string `json:"name"`
	OK     bool   `json:"-"`
	Detail string `json:"detail,omitempty"`
}

// checks accumulates outcomes; each one counts as an attempted operation
// and each failure as a failed one.
type checks struct {
	list []checkOutcome
}

func (c *checks) add(name string, ok bool, format string, args ...any) {
	o := checkOutcome{Name: name, OK: ok}
	if !ok {
		o.Detail = fmt.Sprintf(format, args...)
	}
	c.list = append(c.list, o)
}

func (c *checks) failed() []checkOutcome {
	var out []checkOutcome
	for _, o := range c.list {
		if !o.OK {
			out = append(out, o)
		}
	}
	return out
}

// oracle replays sample entities' events locally through the public schema
// and rules functions.
type oracle struct {
	sch     *schema.Schema
	factory func(uint64) schema.Record
	engine  *rules.Engine
}

func newOracle(sch *schema.Schema) (*oracle, error) {
	dims, err := workload.BuildDimensions(serverSeed)
	if err != nil {
		return nil, err
	}
	rs, err := workload.BuildRules(sch, serverRules, serverSeed)
	if err != nil {
		return nil, err
	}
	eng, err := rules.NewEngine(sch, rs, false)
	if err != nil {
		return nil, err
	}
	return &oracle{sch: sch, factory: dims.Factory(sch), engine: eng}, nil
}

// replay returns the record the entity's events produce and, per event, the
// rule firings.
func (o *oracle) replay(entity uint64, evs []sentEvent) (schema.Record, []int) {
	rec := o.factory(entity)
	firings := make([]int, len(evs))
	for i := range evs {
		ev := evs[i].ev
		o.sch.Apply(rec, &ev)
		firings[i] = len(o.engine.Evaluate(&ev, rec))
	}
	return rec, firings
}

// sameRecord compares slot for slot, skipping the version slot: it counts
// every Put of the partition, which no single entity's replay can know.
func sameRecord(sch *schema.Schema, a, b schema.Record) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if i != sch.VersionSlot && a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

func countQuery() *query.Query {
	return &query.Query{ID: 1<<41 | 1, Aggs: []query.AggExpr{{Op: query.OpCount}}, GroupBy: -1}
}

// sameResult compares two finalized results of q; floats within 1e-9
// relative, since partition partials merge in completion order. Arg-op
// columns (Q6, Q7) are skipped: they report an entity id, and when several
// records tie on the extreme value the winner is whichever partition's
// partial merged first.
func sameResult(q *query.Query, a, b *query.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Key != rb.Key || len(ra.Values) != len(rb.Values) {
			return false
		}
		for j := range ra.Values {
			if j < len(q.Aggs) && q.Aggs[j].Op >= query.OpArgMax {
				continue
			}
			x, y := ra.Values[j], rb.Values[j]
			if x != y && math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		}
	}
	return true
}

// snapshot is what the durability check compares across the kill.
type snapshot struct {
	records map[uint64]schema.Record
	count   float64
}

func (r *runner) sampleIDs() []uint64 {
	ids := make([]uint64, 0, len(r.samples))
	for id := range r.samples {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// takeSnapshot fetches the sample entities and the match-all COUNT.
func (r *runner) takeSnapshot(st *stack) (*snapshot, error) {
	snap := &snapshot{records: map[uint64]schema.Record{}}
	for _, id := range r.sampleIDs() {
		rec, _, found, err := st.cl.Get(id)
		if err != nil {
			return nil, fmt.Errorf("get entity %d: %w", id, err)
		}
		if !found {
			return nil, fmt.Errorf("entity %d not found", id)
		}
		snap.records[id] = rec
	}
	res, err := st.coord.Execute(countQuery())
	if err := checkResult(res, err); err != nil {
		return nil, fmt.Errorf("count query: %w", err)
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("count query returned %d rows", len(res.Rows))
	}
	snap.count = res.Rows[0].Values[0]
	return snap, nil
}

// verify runs the output checks at quiescence, after the final flush.
// srvEvents is the server's aim_core_events_total as scraped after it.
func (r *runner) verify(c *checks, srvEvents float64) *snapshot {
	sent := r.eventsSent.Load()
	c.add("events_sent_equal_applied", float64(sent) == srvEvents,
		"sent %d events, server applied %.0f", sent, srvEvents)

	// One scan round merges the last delta; the snapshot's COUNT is that
	// round, so every later query sees the final state.
	if _, err := r.st.coord.Execute(countQuery()); err != nil {
		c.add("settle_query", false, "%v", err)
		return nil
	}
	snap, err := r.takeSnapshot(r.st)
	if err != nil {
		c.add("snapshot", false, "%v", err)
		return nil
	}
	c.add("count_equals_population", snap.count == float64(r.w.Entities),
		"COUNT(*) = %.0f, population %d", snap.count, r.w.Entities)

	or, err := newOracle(r.st.sch)
	if err != nil {
		c.add("oracle", false, "%v", err)
		return snap
	}
	for _, id := range r.sampleIDs() {
		evs := r.samples[id]
		want, firings := or.replay(id, evs)
		slot, ok := sameRecord(r.st.sch, snap.records[id], want)
		c.add(fmt.Sprintf("entity_%d_matches_replay", id), ok,
			"slot %d differs after %d events", slot, len(evs))
		for i, se := range evs {
			if se.firings >= 0 && se.firings != firings[i] {
				c.add(fmt.Sprintf("entity_%d_firings", id), false,
					"event %d: server fired %d rules, replay %d", i, se.firings, firings[i])
			}
		}
	}

	g, err := workload.NewQueryGen(r.st.sch, r.seed)
	if err != nil {
		c.add("query_gen", false, "%v", err)
		return snap
	}
	for i, q := range []*query.Query{g.Q1(1), g.Q2(3), g.Q3(), g.Q4(3, 60), g.Q5(1, 1), g.Q6(2), g.Q7(1)} {
		name := fmt.Sprintf("q%d_repeatable", i+1)
		a, err := r.st.coord.Execute(q)
		if err := checkResult(a, err); err != nil {
			c.add(name, false, "%v", err)
			continue
		}
		b, err := r.st.coord.Execute(q)
		if err := checkResult(b, err); err != nil {
			c.add(name, false, "%v", err)
			continue
		}
		c.add(name, sameResult(q, a, b), "two runs at quiescence differ")
	}
	return snap
}

// recoverCheck is the durability check: SIGKILL after the last acknowledged
// flush, restart on the same data dir, and compare with the pre-kill
// snapshot. It returns exec -> first successful query. With -fsync=false
// this covers a process crash (the page cache survives), not power loss.
func (r *runner) recoverCheck(c *checks, bin, runDir string, srv *server, before *snapshot) (*server, time.Duration) {
	r.st.close()
	srv.kill()
	t0 := time.Now()
	srv2, err := startServer(bin, r.w, runDir, srv.dataDir)
	if err != nil {
		c.add("recover_restart", false, "%v", err)
		return nil, 0
	}
	st2, err := newStack(srv2.addr, r.st.sch, nil)
	if err != nil {
		c.add("recover_dial", false, "%v", err)
		return srv2, 0
	}
	defer st2.close()
	after, err := r.takeSnapshot(st2)
	recoverTime := time.Since(t0)
	if err != nil {
		c.add("recover_snapshot", false, "%v", err)
		return srv2, recoverTime
	}
	c.add("recover_count", after.count == before.count,
		"COUNT(*) %.0f before the kill, %.0f after", before.count, after.count)
	for _, id := range r.sampleIDs() {
		slot, ok := sameRecord(r.st.sch, before.records[id], after.records[id])
		c.add(fmt.Sprintf("recover_entity_%d", id), ok, "slot %d differs after recovery", slot)
	}
	return srv2, recoverTime
}
