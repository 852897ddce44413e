package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
)

// Coupling surface: core.Storage, core.BatchProcessor, core.QueryResponse.

// span is one timed call at a layer boundary. Spans of one event chunk or
// one query share ID; Parent is the index of the span that caused this one
// (-1 for a root). Times are nanoseconds since the trace began.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanBuf is one actor's span list (the sender, the prober, one query
// client). Indexes are local until tracer.merge remaps them.
type spanBuf struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (b *spanBuf) begin(name string, id uint64, parent int) int {
	now := time.Since(b.t0).Nanoseconds()
	b.mu.Lock()
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, StartNs: now})
	i := len(b.spans) - 1
	b.mu.Unlock()
	return i
}

func (b *spanBuf) end(i int) {
	now := time.Since(b.t0).Nanoseconds()
	b.mu.Lock()
	b.spans[i].EndNs = now
	b.mu.Unlock()
}

// spanCtx names the open span a decorator call should hang its child under.
type spanCtx struct {
	buf    *spanBuf
	parent int
	id     uint64
}

// tracer is the traced run's recorder. While off, the decorators pass
// straight through, so one client stack serves the untraced and the traced
// half of a --trace 1 run.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	mu   sync.Mutex
	bufs []*spanBuf

	// The decorators sit below cluster and rta, which pass no context down.
	// Events find their parent by caller id (the prober owns one entity, the
	// sender every other); queries by the *query.Query the coordinator hands
	// through unchanged.
	proberEntity uint64
	senderCtx    atomic.Pointer[spanCtx]
	proberCtx    atomic.Pointer[spanCtx]
	queryCtx     sync.Map // *query.Query -> spanCtx
}

func newTracer(proberEntity uint64) *tracer {
	return &tracer{t0: time.Now(), proberEntity: proberEntity}
}

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{t0: t.t0}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) eventCtx(caller uint64) *spanCtx {
	if !t.on.Load() {
		return nil
	}
	if caller == t.proberEntity {
		return t.proberCtx.Load()
	}
	return t.senderCtx.Load()
}

// merge returns every finished span ordered by start time with parents
// remapped to the merged indexes. Spans still open (EndNs == 0) and their
// descendants are dropped.
func (t *tracer) merge() []span {
	type ref struct {
		buf, idx int
	}
	t.mu.Lock()
	bufs := t.bufs
	t.mu.Unlock()
	var refs []ref
	for bi, b := range bufs {
		b.mu.Lock()
		for i := range b.spans {
			refs = append(refs, ref{bi, i})
		}
		b.mu.Unlock()
	}
	at := func(r ref) *span { return &bufs[r.buf].spans[r.idx] }
	sort.SliceStable(refs, func(i, j int) bool { return at(refs[i]).StartNs < at(refs[j]).StartNs })
	remap := make(map[ref]int, len(refs))
	out := make([]span, 0, len(refs))
	for _, r := range refs {
		s := *at(r)
		if s.EndNs == 0 {
			continue
		}
		if s.Parent >= 0 {
			p, ok := remap[ref{r.buf, s.Parent}]
			if !ok {
				continue
			}
			s.Parent = p
		}
		remap[r] = len(out)
		out = append(out, s)
	}
	return out
}

// spanSummary is what the per-layer T metrics are computed from.
type spanSummary struct {
	Count  map[string]int     `json:"count"`
	DurNs  map[string]float64 `json:"dur_ns"`
	SelfNs map[string]float64 `json:"self_ns"`
}

// summarize checks that every child nests inside its parent and computes
// per-name totals; self time is a span's duration minus its children's.
func summarize(spans []span) (spanSummary, error) {
	sum := spanSummary{Count: map[string]int{}, DurNs: map[string]float64{}, SelfNs: map[string]float64{}}
	child := make([]int64, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return sum, fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return sum, fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]",
				i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		child[s.Parent] += s.EndNs - s.StartNs
	}
	for i, s := range spans {
		d := s.EndNs - s.StartNs
		sum.Count[s.Name]++
		sum.DurNs[s.Name] += float64(d)
		sum.SelfNs[s.Name] += float64(d - child[i])
	}
	return sum, nil
}

// tracedStorage is the T decorator: it sits between cluster / rta and the
// netproto.Client and records one span per call into the client.
type tracedStorage struct {
	inner core.Storage
	tr    *tracer
}

var (
	_ core.Storage        = (*tracedStorage)(nil)
	_ core.BatchProcessor = (*tracedStorage)(nil)
)

func (s *tracedStorage) ProcessEventAsync(ev event.Event) error {
	c := s.tr.eventCtx(ev.Caller)
	if c == nil {
		return s.inner.ProcessEventAsync(ev)
	}
	i := c.buf.begin("netproto.event_async", c.id, c.parent)
	err := s.inner.ProcessEventAsync(ev)
	c.buf.end(i)
	return err
}

func (s *tracedStorage) ProcessEvent(ev event.Event) (int, error) {
	c := s.tr.eventCtx(ev.Caller)
	if c == nil {
		return s.inner.ProcessEvent(ev)
	}
	i := c.buf.begin("netproto.event_sync", c.id, c.parent)
	n, err := s.inner.ProcessEvent(ev)
	c.buf.end(i)
	return n, err
}

func (s *tracedStorage) ProcessEventBatch(evs []event.Event) error {
	_, err := core.ProcessBatch(s.inner, evs)
	return err
}

func (s *tracedStorage) FlushEvents() error {
	c := s.tr.eventCtx(0)
	if c == nil {
		return s.inner.FlushEvents()
	}
	i := c.buf.begin("netproto.flush", c.id, c.parent)
	err := s.inner.FlushEvents()
	c.buf.end(i)
	return err
}

func (s *tracedStorage) Get(id uint64) (schema.Record, uint64, bool, error) {
	return s.inner.Get(id)
}
func (s *tracedStorage) Put(rec schema.Record) error { return s.inner.Put(rec) }
func (s *tracedStorage) ConditionalPut(rec schema.Record, v uint64) error {
	return s.inner.ConditionalPut(rec, v)
}

func (s *tracedStorage) SubmitQueryAsync(q *query.Query) (<-chan core.QueryResponse, error) {
	v, ok := s.tr.queryCtx.Load(q)
	if !ok || !s.tr.on.Load() {
		return s.inner.SubmitQueryAsync(q)
	}
	c := v.(spanCtx)
	i := c.buf.begin("netproto.query", c.id, c.parent)
	ch, err := s.inner.SubmitQueryAsync(q)
	if err != nil {
		c.buf.end(i)
		return nil, err
	}
	out := make(chan core.QueryResponse, 1)
	go func() {
		r := <-ch
		c.buf.end(i)
		out <- r
	}()
	return out, nil
}

func (s *tracedStorage) SubmitQuery(q *query.Query) (*query.Partial, error) {
	ch, err := s.SubmitQueryAsync(q)
	if err != nil {
		return nil, err
	}
	r := <-ch
	return r.Partial, r.Err
}
