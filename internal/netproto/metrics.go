package netproto

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// opName maps wire message types to the op label of the RPC metrics.
func opName(typ uint8) string {
	switch typ {
	case msgEventSync:
		return "event_sync"
	case msgFlush:
		return "flush"
	case msgGet:
		return "get"
	case msgPut:
		return "put"
	case msgCondPut:
		return "cond_put"
	case msgQuery:
		return "query"
	case msgEventBatch:
		return "event_batch"
	}
	return "unknown"
}

// Metrics instruments one Client (the ESP router / RTA coordinator side of
// the wire): per-op RPC latency, retry/timeout/reconnect counters, and
// SpanRPC trace records. A nil *Metrics is a no-op.
type Metrics struct {
	latency  [msgResp]*obs.Histogram // indexed by wire message type
	events   *obs.Counter
	retries  *obs.Counter
	timeouts *obs.Counter
	redials  *obs.Counter
	failures *obs.Counter
	tracer   obs.Tracer
}

// NewClientMetrics registers the client-side RPC instruments on reg.
// tracer may be nil.
func NewClientMetrics(reg *obs.Registry, tracer obs.Tracer) *Metrics {
	m := &Metrics{
		events: reg.Counter("aim_net_client_events_total",
			"Fire-and-forget event frames shipped to storage servers."),
		retries: reg.Counter("aim_net_client_retries_total",
			"RPC attempts beyond the first (idempotent-op retry loop)."),
		timeouts: reg.Counter("aim_net_client_timeouts_total",
			"RPC attempts that exceeded CallTimeout."),
		redials: reg.Counter("aim_net_client_reconnects_total",
			"Successful redials after connection loss."),
		failures: reg.Counter("aim_net_client_errors_total",
			"RPCs that ultimately failed (after retries)."),
		tracer: tracer,
	}
	for typ := uint8(msgEventSync); typ < msgResp; typ++ {
		m.latency[typ] = reg.LatencyHistogram(
			obs.Label("aim_net_client_seconds", "op", opName(typ)),
			"Client-observed RPC latency including retries and backoff.")
	}
	return m
}

// observeCall records one completed RPC (including its retries). Nil-safe.
func (m *Metrics) observeCall(typ uint8, t0 time.Time, err error) {
	if m == nil {
		return
	}
	d := time.Since(t0)
	if int(typ) < len(m.latency) {
		m.latency[typ].ObserveDuration(d)
	}
	var failed int64
	if err != nil {
		m.failures.Inc()
		failed = 1
		if errors.Is(err, ErrTimeout) {
			m.timeouts.Inc()
		}
	}
	if m.tracer != nil {
		m.tracer.Record(obs.Span{Kind: obs.SpanRPC, Start: t0, Dur: d, A: int64(typ), B: failed})
	}
}

func (m *Metrics) retried() {
	if m != nil {
		m.retries.Inc()
	}
}

// eventsSent counts fire-and-forget events shipped (n per batch frame).
func (m *Metrics) eventsSent(n int) {
	if m != nil {
		m.events.Add(uint64(n))
	}
}

func (m *Metrics) reconnected() {
	if m != nil {
		m.redials.Inc()
	}
}

// ServerMetrics instruments a Server: per-op handling latency (request
// arrival to response write) and the fire-and-forget event count. A nil
// *ServerMetrics is a no-op.
type ServerMetrics struct {
	latency [msgResp]*obs.Histogram
	events  *obs.Counter
}

// NewServerMetrics registers the server-side RPC instruments on reg.
func NewServerMetrics(reg *obs.Registry) *ServerMetrics {
	m := &ServerMetrics{
		events: reg.Counter("aim_net_server_events_total",
			"Fire-and-forget event frames received."),
	}
	for typ := uint8(msgEventSync); typ < msgResp; typ++ {
		m.latency[typ] = reg.LatencyHistogram(
			obs.Label("aim_net_server_seconds", "op", opName(typ)),
			"Server-side request handling latency (arrival to response write).")
	}
	return m
}

// eventsReceived counts fire-and-forget events arriving (n per batch frame).
func (m *ServerMetrics) eventsReceived(n int) {
	if m != nil {
		m.events.Add(uint64(n))
	}
}

func (m *ServerMetrics) observe(typ uint8, t0 time.Time) {
	if m == nil {
		return
	}
	if int(typ) < len(m.latency) {
		m.latency[typ].ObserveSince(t0)
	}
}
