package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rta"
	"repro/internal/schema"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Coupling surface: netproto.DialConfig/ClientConfig/NewClientMetrics,
// cluster.NewWithHealth/Instrument/Get, esp.NewRouter/Ingest/IngestSync/Flush,
// rta.NewCoordinatorConfig/NewMetrics/Execute, event.NewGenerator/NextFor,
// workload.BuildSchema/BuildSmallSchema/NewQueryGen, obs.NewRegistry/StatsJSON.

// callTimeout must exceed the longest call of a run: on a backlogged server
// the final FlushEvents waits for the whole backlog, which the client's 10 s
// default would turn into a timeout reported as success by nobody.
const callTimeout = 150 * time.Second

// wireCount counts what the event connection writes, by frame type. A
// netproto frame is a 13-byte header write (u32 length, u8 type, u64 reqID)
// followed by one body write, so header writes identify frames.
type wireCount struct {
	net.Conn
	bytes  *atomic.Uint64
	frames *[256]atomic.Uint64
}

const (
	wireHeaderLen   = 13
	wireEvent       = 1 // msgEvent
	wireEventBatch  = 9 // msgEventBatch
	wireTypeOffset  = 4
	eventBatchLimit = 256 // events per client-side wire batch, as aimload
)

func (c wireCount) Write(p []byte) (int, error) {
	c.bytes.Add(uint64(len(p)))
	if len(p) == wireHeaderLen {
		c.frames[p[wireTypeOffset]].Add(1)
	}
	return c.Conn.Write(p)
}

// stack is the system's own client tier over exactly two TCP connections:
// events go netproto.Client -> cluster -> esp.Router, queries go
// netproto.Client -> rta.Coordinator.
type stack struct {
	sch    *schema.Schema
	reg    *obs.Registry
	evCli  *netproto.Client
	qCli   *netproto.Client
	cl     *cluster.Cluster
	router *esp.Router
	coord  *rta.Coordinator

	tr         *tracer // nil in timed runs: no decorators at all
	wireBytes  atomic.Uint64
	wireFrames [256]atomic.Uint64
}

func buildSchema(full bool) (*schema.Schema, error) {
	if full {
		return workload.BuildSchema()
	}
	return workload.BuildSmallSchema()
}

func newStack(addr string, sch *schema.Schema, tr *tracer) (*stack, error) {
	st := &stack{sch: sch, reg: obs.NewRegistry(), tr: tr}
	evCfg := netproto.ClientConfig{
		CallTimeout: callTimeout,
		Metrics:     netproto.NewClientMetrics(st.reg, nil),
		EventBatch:  eventBatchLimit,
		EventLinger: time.Millisecond,
	}
	if tr != nil {
		evCfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return wireCount{Conn: c, bytes: &st.wireBytes, frames: &st.wireFrames}, nil
		}
	}
	var err error
	if st.evCli, err = netproto.DialConfig(addr, sch, evCfg); err != nil {
		return nil, fmt.Errorf("dial event connection: %w", err)
	}
	qCfg := netproto.ClientConfig{CallTimeout: callTimeout, Metrics: evCfg.Metrics}
	if st.qCli, err = netproto.DialConfig(addr, sch, qCfg); err != nil {
		st.evCli.Close()
		return nil, fmt.Errorf("dial query connection: %w", err)
	}
	var evHandle, qHandle core.Storage = st.evCli, st.qCli
	if tr != nil {
		evHandle = &tracedStorage{inner: st.evCli, tr: tr}
		qHandle = &tracedStorage{inner: st.qCli, tr: tr}
	}
	if st.cl, err = cluster.NewWithHealth([]core.Storage{evHandle}, cluster.HealthConfig{}); err != nil {
		st.close()
		return nil, err
	}
	st.cl.Instrument(st.reg)
	st.router = esp.NewRouter(st.cl)
	st.coord, err = rta.NewCoordinatorConfig([]core.Storage{qHandle}, rta.Config{Metrics: rta.NewMetrics(st.reg)})
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	st.evCli.Close()
	st.qCli.Close()
}

// eventStream generates one seeded event sequence with the workload's caller
// distribution. Callers come from [1, Entities-1]; the last id belongs to
// the freshness prober, so no generated event can reorder against a probe.
type eventStream struct {
	gen     *event.Generator
	rng     *rand.Rand
	callers uint64
	hotSet  uint64
	hotFrac float64
}

func newEventStream(w spec, seed int64) *eventStream {
	return &eventStream{
		gen:     event.NewGenerator(w.Entities, seed),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		callers: w.Entities - 1,
		hotSet:  w.HotSet,
		hotFrac: w.HotFrac,
	}
}

func (s *eventStream) next(ev *event.Event) {
	var caller uint64
	if s.hotFrac > 0 && s.rng.Float64() < s.hotFrac {
		caller = 1 + uint64(s.rng.Int63n(int64(s.hotSet)))
	} else {
		caller = 1 + uint64(s.rng.Int63n(int64(s.callers)))
	}
	s.gen.NextFor(ev, caller)
}

// sample is one latency observation, when (since the phase began) it
// completed, and how many operations its completion confirmed.
type sample struct {
	at  time.Duration
	lat time.Duration
	n   int
}

// sentEvent is an event of a sample entity, kept for the replay check.
// firings is the server's reply for synchronous sends, -1 otherwise.
type sentEvent struct {
	ev      event.Event
	firings int
}

// runner drives one server from preload to the end of the run.
type runner struct {
	w    spec
	st   *stack
	seed int64

	stream   *eventStream
	samples  map[uint64][]sentEvent // sample entity -> its events in send order (sender goroutine only)
	qgens    []*workload.QueryGen
	pollQ    *query.Query
	costAttr int

	proberEntity uint64
	proberSeq    int64
	proberTs     int64

	eventsSent atomic.Uint64 // handed to the router without error: any phase, probes included
}

// sampleCount is how many entities the replay check fetches.
const sampleCount = 64

func newRunner(w spec, st *stack, seed int64) (*runner, error) {
	r := &runner{
		w: w, st: st, seed: seed,
		stream:       newEventStream(w, seed),
		samples:      make(map[uint64][]sentEvent, sampleCount),
		proberEntity: w.Entities,
		// An hour past the stream's clock, so probe timestamps never run
		// backwards against the prober entity's own preload event.
		proberTs: event.NewGenerator(1, 0).Now() + 3_600_000,
	}
	// Sample entities: seeded, half from the hot set when there is one so
	// multi-event records and coalesced runs are covered.
	rng := rand.New(rand.NewSource(seed ^ 0x5a3b1e))
	for len(r.samples) < sampleCount && uint64(len(r.samples)) < w.Entities-1 {
		span := w.Entities - 1
		if w.HotSet > 0 && len(r.samples) < sampleCount/2 {
			span = w.HotSet
		}
		r.samples[1+uint64(rng.Int63n(int64(span)))] = nil
	}
	for i := 0; i < w.QueryClients; i++ {
		g, err := workload.NewQueryGen(st.sch, seed*1000+100+int64(i))
		if err != nil {
			return nil, err
		}
		r.qgens = append(r.qgens, g)
	}
	calls, err := st.sch.AttrIndex("calls_any_week_count")
	if err != nil {
		return nil, err
	}
	cost, err := st.sch.AttrIndex("cost_any_week_max")
	if err != nil {
		return nil, err
	}
	// The freshness poll: Q2's shape with a predicate every preloaded record
	// satisfies, so the scan touches the whole matrix like any other query.
	r.pollQ = &query.Query{
		ID:      1 << 40,
		Where:   []query.Conjunct{{query.PredInt(calls, vec.Gt, 0)}},
		Aggs:    []query.AggExpr{{Op: query.OpMax, Attr: cost}},
		GroupBy: -1,
	}
	return r, nil
}

// note records ev if its caller is a sample entity.
func (r *runner) note(ev *event.Event, firings int) {
	if evs, ok := r.samples[ev.Caller]; ok {
		r.samples[ev.Caller] = append(evs, sentEvent{*ev, firings})
	}
}

// preload materializes every entity with one event in id order and flushes.
func (r *runner) preload() error {
	var ev event.Event
	for e := uint64(1); e <= r.w.Entities; e++ {
		r.stream.gen.NextFor(&ev, e)
		r.note(&ev, -1)
		if err := r.st.router.Ingest(ev); err != nil {
			return fmt.Errorf("preload entity %d: %w", e, err)
		}
		r.eventsSent.Add(1)
	}
	return r.st.router.Flush()
}

// phase is what one drive call measured.
type phase struct {
	dur time.Duration

	esp, rta, fresh []sample
	late            []float64 // open loop: how late, in ms, the generator itself began each tick

	eventErrs, queryErrs, probeErrs uint64
	firstErr                        error
}

func (p *phase) fail(counter *uint64, err error) {
	*counter++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// drive runs the workload's shape — sender, query clients, prober — for dur
// and returns what it measured. The sender ends with a flush outside dur.
func (r *runner) drive(dur time.Duration) *phase {
	start := time.Now()
	stop := start.Add(dur)
	parts := make([]*phase, 2+len(r.qgens))
	var wg sync.WaitGroup
	run := func(i int, f func(p *phase)) {
		parts[i] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(parts[i])
		}()
	}
	run(0, func(p *phase) {
		if r.w.OpenRate > 0 {
			r.sendOpen(start, stop, p)
		} else {
			r.sendClosed(start, stop, p)
		}
	})
	run(1, func(p *phase) { r.probeLoop(start, stop, p) })
	for i := range r.qgens {
		run(2+i, func(p *phase) { r.queryLoop(i, start, stop, p) })
	}
	wg.Wait()
	out := &phase{dur: dur}
	for _, p := range parts {
		out.esp = append(out.esp, p.esp...)
		out.rta = append(out.rta, p.rta...)
		out.fresh = append(out.fresh, p.fresh...)
		out.late = append(out.late, p.late...)
		out.eventErrs += p.eventErrs
		out.queryErrs += p.queryErrs
		out.probeErrs += p.probeErrs
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// tracing reports whether spans are being recorded right now.
func (r *runner) tracing() bool { return r.st.tr != nil && r.st.tr.on.Load() }

// newBuf gives an actor its span list in a traced run, nil otherwise.
func (r *runner) newBuf() *spanBuf {
	if r.st.tr == nil {
		return nil
	}
	return r.st.tr.newBuf()
}

// inSpan runs fn, inside a span under parent when on. ctx is where the
// decorator below cluster looks up the span to hang its own child under.
func inSpan(on bool, buf *spanBuf, ctx *atomic.Pointer[spanCtx], name string, id uint64, parent int, fn func()) {
	if !on {
		fn()
		return
	}
	i := buf.begin(name, id, parent)
	ctx.Store(&spanCtx{buf: buf, parent: i, id: id})
	fn()
	ctx.Store(nil)
	buf.end(i)
}

// ingest sends one event through the router, inside an esp.ingest span when
// traced. It is the per-event hot path, so it takes no closure.
func (r *runner) ingest(ev *event.Event, buf *spanBuf, id uint64, root int, traced bool, p *phase) {
	r.note(ev, -1)
	var err error
	if traced {
		i := buf.begin("esp.ingest", id, root)
		r.st.tr.senderCtx.Store(&spanCtx{buf: buf, parent: i, id: id})
		err = r.st.router.Ingest(*ev)
		buf.end(i)
	} else {
		err = r.st.router.Ingest(*ev)
	}
	if err != nil {
		p.fail(&p.eventErrs, fmt.Errorf("ingest: %w", err))
		return
	}
	r.eventsSent.Add(1)
}

// ctxSlot is the sender's or the prober's slot in the tracer, nil in a
// timed run.
func (r *runner) ctxSlot(prober bool) *atomic.Pointer[spanCtx] {
	switch {
	case r.st.tr == nil:
		return nil
	case prober:
		return &r.st.tr.proberCtx
	}
	return &r.st.tr.senderCtx
}

// sendOpen is the open-loop sender: every openTick it sends the events then
// due, the last one synchronously. That reply is the t_ESP sample, timed
// from when the tick was due, and — one ESP thread serving the connection in
// order — confirms every event sent before it. When the sender has fallen
// behind (a server stall blocked the previous reply), it sends everything
// due by now at once; the one reply then closes every overdue tick, each
// timed from its own due time, so a stall is charged to all the ticks it
// delayed and catching up is limited by the server, not by one round trip
// per missed tick.
func (r *runner) sendOpen(start, stop time.Time, p *phase) {
	buf := r.newBuf()
	dueAt := func(k int) time.Time { return start.Add(time.Duration(k) * openTick) }
	lastTick := int(stop.Sub(start) / openTick)
	var ev event.Event
	var lastDone time.Time
	sent := 0
	for k := 1; k <= lastTick; {
		if d := time.Until(dueAt(k)); d > 0 {
			time.Sleep(d)
		}
		begun := time.Now()
		to := int(begun.Sub(start) / openTick) // newest tick already due
		if to > lastTick {
			to = lastTick
		}
		// Generator lateness: how long after a tick was due — or, if the
		// previous reply was still outstanding then, after that reply — the
		// sender got to it. Waiting for the server is t_ESP, not lateness.
		for j := k; j <= to; j++ {
			from := dueAt(j)
			if lastDone.After(from) {
				from = lastDone
			}
			p.late = append(p.late, ms(begun.Sub(from)))
		}
		first := k
		k = to + 1
		n := int(r.w.OpenRate*(time.Duration(to)*openTick).Seconds()) - sent
		if n <= 0 {
			continue
		}
		sent += n
		id, traced, root := uint64(to), r.tracing(), 0
		if traced {
			root = buf.begin("gen.chunk", id, -1)
		}
		for i := 0; i < n-1; i++ {
			r.stream.next(&ev)
			r.ingest(&ev, buf, id, root, traced, p)
		}
		r.stream.next(&ev)
		var firings int
		var err error
		inSpan(traced, buf, r.ctxSlot(false), "esp.ingest_sync", id, root, func() {
			firings, err = r.st.router.IngestSync(ev)
		})
		if traced {
			buf.end(root)
		}
		done := time.Now()
		lastDone = done
		if err != nil {
			p.fail(&p.eventErrs, fmt.Errorf("sync event: %w", err))
			continue
		}
		r.note(&ev, firings)
		r.eventsSent.Add(1)
		for j := first; j <= to; j++ {
			p.esp = append(p.esp, sample{at: done.Sub(start), lat: done.Sub(dueAt(j))})
		}
		p.esp[len(p.esp)-1].n = n // the one reply confirmed the whole send
	}
	if err := r.st.router.Flush(); err != nil {
		p.fail(&p.eventErrs, fmt.Errorf("final flush: %w", err))
	}
}

// sendClosed is the closed-loop sender: a chunk of events, a flush, repeat.
// t_ESP is first hand-off to flush return.
func (r *runner) sendClosed(start, stop time.Time, p *phase) {
	buf := r.newBuf()
	var ev event.Event
	for k := uint64(1); time.Now().Before(stop); k++ {
		traced, root := r.tracing(), 0
		if traced {
			root = buf.begin("gen.chunk", k, -1)
		}
		t0 := time.Now()
		errsBefore := p.eventErrs
		for i := 0; i < r.w.Chunk; i++ {
			r.stream.next(&ev)
			r.ingest(&ev, buf, k, root, traced, p)
		}
		var err error
		inSpan(traced, buf, r.ctxSlot(false), "esp.flush", k, root, func() { err = r.st.router.Flush() })
		if traced {
			buf.end(root)
		}
		if err != nil {
			p.fail(&p.eventErrs, fmt.Errorf("chunk flush: %w", err))
			continue
		}
		done := time.Now()
		p.esp = append(p.esp, sample{at: done.Sub(start), lat: done.Sub(t0), n: r.w.Chunk - int(p.eventErrs-errsBefore)})
	}
}

// execute runs one query through the coordinator, inside an rta.execute
// span when traced.
func (r *runner) execute(q *query.Query, buf *spanBuf) (*query.Result, error) {
	if !r.tracing() {
		return r.st.coord.Execute(q)
	}
	tr := r.st.tr
	i := buf.begin("rta.execute", q.ID, -1)
	tr.queryCtx.Store(q, spanCtx{buf: buf, parent: i, id: q.ID})
	res, err := r.st.coord.Execute(q)
	tr.queryCtx.Delete(q)
	buf.end(i)
	return res, err
}

// checkResult is the per-query output check of the timed window.
func checkResult(res *query.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res == nil:
		return errors.New("nil result")
	case res.Incomplete:
		return fmt.Errorf("incomplete result: %d of %d nodes", res.CoveredNodes, res.TotalNodes)
	}
	return nil
}

// queryLoop is one closed-loop RTA client drawing Q1–Q7 uniformly.
func (r *runner) queryLoop(i int, start, stop time.Time, p *phase) {
	buf := r.newBuf()
	g := r.qgens[i]
	for time.Now().Before(stop) {
		q := g.Next()
		// Ids are per generator; make them unique across clients so a
		// trace's shared id names one query.
		q.ID = uint64(i+1)<<32 | q.ID
		t0 := time.Now()
		res, err := r.execute(q, buf)
		done := time.Now()
		if err := checkResult(res, err); err != nil {
			p.fail(&p.queryErrs, fmt.Errorf("Q%d: %w", q.Template, err))
		} else if !done.After(stop) {
			p.rta = append(p.rta, sample{at: done.Sub(start), lat: done.Sub(t0), n: 1})
		}
		if r.w.Think > 0 {
			time.Sleep(r.w.Think)
		}
	}
}

// probeTimeout bounds how long one freshness probe polls before it counts
// as failed.
const probeTimeout = 20 * time.Second

// probeLoop measures t_fresh as a client sees it: a synchronous event on the
// event connection whose cost exceeds every earlier cost, then polls of
// MAX(cost_any_week_max) on the query connection until one returns it.
// Polls never count toward rta_*.
func (r *runner) probeLoop(start, stop time.Time, p *phase) {
	buf := r.newBuf()
	interval := time.Second / probeRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k)*interval + interval/2)
		if due.After(stop) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.proberSeq++
		r.proberTs++
		cost := 1000 + float64(r.proberSeq)
		ev := event.Event{
			Caller: r.proberEntity, Callee: 1, Timestamp: r.proberTs,
			Duration: 1, Cost: cost,
		}
		id := uint64(1)<<48 | uint64(r.proberSeq)
		t0 := time.Now()
		var err error
		inSpan(r.tracing(), buf, r.ctxSlot(true), "esp.ingest_sync", id, -1, func() {
			_, err = r.st.router.IngestSync(ev)
		})
		if err != nil {
			p.fail(&p.probeErrs, fmt.Errorf("probe event: %w", err))
			continue
		}
		r.eventsSent.Add(1)
		for {
			res, err := r.st.coord.Execute(r.pollQ)
			if err := checkResult(res, err); err != nil {
				p.fail(&p.probeErrs, fmt.Errorf("probe poll: %w", err))
				break
			}
			if len(res.Rows) == 1 && res.Rows[0].Values[0] >= cost {
				done := time.Now()
				p.fresh = append(p.fresh, sample{at: done.Sub(start), lat: done.Sub(t0), n: 1})
				break
			}
			if time.Since(t0) > probeTimeout {
				p.fail(&p.probeErrs, fmt.Errorf("probe %d not visible after %v", r.proberSeq, probeTimeout))
				break
			}
		}
	}
}
