package core

import (
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/rules"
	"repro/internal/schema"
)

// Request kinds handled by the ESP service loop.
const (
	kindKick  uint8 = iota // wake-up for a flag check, no work
	kindBatch              // evs: events for this worker's partitions (a lone event is a batch of one)
	kindGet
	kindPut
	kindCondPut
	kindSync
	kindExec // run fn on the ESP thread (checkpointing)
)

type espRequest struct {
	kind    uint8
	evs     []event.Event // kindBatch payload; owned by the worker
	entity  uint64
	rec     schema.Record
	version uint64
	fn      func() error
	resp    chan espResponse // nil for fire-and-forget
}

type espResponse struct {
	rec     schema.Record
	version uint64
	found   bool
	err     error
	firings int // kindBatch: rule firings the batch caused
}

// espWorker is one ESP thread of a storage node (§4.8): the single writer
// for its assigned partitions. It processes events (UPDATE_MATRIX + rule
// evaluation), Get/Put requests, and acknowledges delta switches between
// requests via Partition.CheckSwitch.
type espWorker struct {
	node   *StorageNode
	ch     chan espRequest
	parts  []*Partition
	engine *rules.Engine // per-worker replica of the rule set; may be nil
	// ruleGroups is the set of attribute groups the rule set reads,
	// computed once at engine construction; it scopes lazy materialization
	// on the batched apply path.
	ruleGroups *schema.GroupSet
	stop       chan struct{}
	done       chan struct{}
	// nEvents is the worker-local event count used to sample per-event
	// latency observation 1-in-16 — frequent enough for stable histograms,
	// cheap enough to leave ingest throughput unchanged.
	nEvents uint64
}

// latencySampleEvery is the event-latency sampling interval (a power of two
// so the modulo folds to a mask).
const latencySampleEvery = 16

func newESPWorker(node *StorageNode, queue int) *espWorker {
	return &espWorker{
		node: node,
		ch:   make(chan espRequest, queue),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// attach assigns a partition to this worker and wires the wake-up kick.
func (w *espWorker) attach(p *Partition) {
	w.parts = append(w.parts, p)
	p.AttachESP(func() {
		// Best-effort wake-up: if the queue is full the loop is busy and
		// checks flags between requests anyway.
		select {
		case w.ch <- espRequest{kind: kindKick}:
		default:
		}
	})
}

// run is the ESP service loop (the paper's Algorithm 7 generalized to k
// partitions per thread).
func (w *espWorker) run() {
	defer close(w.done)
	for {
		select {
		case req := <-w.ch:
			w.checkSwitches()
			w.handle(req)
		case <-w.stop:
			// Drain outstanding requests, then detach so pending delta
			// switches don't wait for a dead thread.
			for {
				select {
				case req := <-w.ch:
					w.checkSwitches()
					w.handle(req)
				default:
					for _, p := range w.parts {
						p.DetachESP()
					}
					return
				}
			}
		}
	}
}

func (w *espWorker) checkSwitches() {
	for _, p := range w.parts {
		p.CheckSwitch()
	}
}

// handleBatch applies a batch of events and returns the rule firings it
// caused. The batch is stable-sorted by caller — same-caller order is
// preserved, and cross-caller order within a batch is free to change
// because an event only ever touches its own caller's record — then applied
// one consecutive same-caller run at a time, so a run pays the partition
// Get/Put once. Delta-switch flags are rechecked between runs to keep the
// RTA thread's park latency bounded by one run rather than one batch, but
// not after the last: the service loop checks before its next request, so
// a waiting synchronous caller is answered before the ESP thread parks.
func (w *espWorker) handleBatch(evs []event.Event) int {
	slices.SortStableFunc(evs, func(a, b event.Event) int {
		switch {
		case a.Caller < b.Caller:
			return -1
		case a.Caller > b.Caller:
			return 1
		}
		return 0
	})
	nf := 0
	for i := 0; i < len(evs); {
		if i > 0 {
			w.checkSwitches()
		}
		j := i + 1
		for j < len(evs) && evs[j].Caller == evs[i].Caller {
			j++
		}
		nf += w.applyRun(evs[i:j])
		i = j
	}
	return nf
}

// applyRun applies one same-caller run through Partition.ApplyEventBatch
// (UPDATE_MATRIX, Algorithm 1), evaluating rules per event against the
// intermediate record (Algorithm 2), and returns the firings. A run that
// starts on a 16th event is sampled: it observes its per-event mean apply
// cost (rule time excluded) and its per-event mean rule-evaluation cost.
func (w *espWorker) applyRun(run []event.Event) int {
	p := w.node.partitionFor(run[0].Caller)
	sample := w.nEvents%latencySampleEvery == 0
	w.nEvents += uint64(len(run))
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	nf := 0
	var ruleTime time.Duration
	var onApply func(ev *event.Event, rec schema.Record)
	if w.engine != nil {
		onApply = func(ev *event.Event, rec schema.Record) {
			var r0 time.Time
			if sample {
				r0 = time.Now()
			}
			firings := w.engine.Evaluate(ev, rec)
			if sample {
				ruleTime += time.Since(r0)
			}
			nf += len(firings)
			if w.node.cfg.OnFiring != nil {
				for _, f := range firings {
					w.node.cfg.OnFiring(f)
				}
			}
		}
	}
	p.ApplyEventBatch(run, w.ruleGroups, onApply)
	if sample {
		n := time.Duration(len(run))
		w.node.met.eventApply.ObserveDuration((time.Since(t0) - ruleTime) / n)
		if w.engine != nil {
			w.node.met.ruleEval.ObserveDuration(ruleTime / n)
		}
	}
	if w.engine != nil {
		w.node.met.firings.Add(uint64(nf))
	}
	w.node.met.events.Add(uint64(len(run)))
	if len(run) > 1 {
		w.node.met.coalescedPuts.Add(uint64(len(run) - 1))
	}
	return nf
}

func (w *espWorker) handle(req espRequest) {
	switch req.kind {
	case kindKick:
		// flag check already happened
	case kindBatch:
		nf := w.handleBatch(req.evs)
		if req.resp != nil {
			req.resp <- espResponse{firings: nf, found: true}
		}
	case kindGet:
		p := w.node.partitionFor(req.entity)
		rec := make(schema.Record, w.node.cfg.Schema.Slots)
		v, ok := p.Get(req.entity, rec)
		if !ok {
			rec = nil
		}
		req.resp <- espResponse{rec: rec, version: v, found: ok}
	case kindPut:
		p := w.node.partitionFor(req.rec.EntityID())
		p.Put(req.rec)
		if req.resp != nil {
			req.resp <- espResponse{found: true}
		}
	case kindCondPut:
		p := w.node.partitionFor(req.rec.EntityID())
		err := p.ConditionalPut(req.rec, req.version)
		req.resp <- espResponse{err: err, found: err == nil}
	case kindSync:
		req.resp <- espResponse{found: true}
	case kindExec:
		err := req.fn()
		req.resp <- espResponse{err: err, found: err == nil}
	}
}
