package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/query"
	"repro/internal/schema"
)

// Coupling surface: netproto.Serve, netproto.Dial, core.Storage.

// stubStorage answers every call at once, so a round trip through it costs
// only the client, the loopback wire and the server's frame handling.
type stubStorage struct{}

var _ core.Storage = stubStorage{}

func (stubStorage) ProcessEventAsync(event.Event) error        { return nil }
func (stubStorage) ProcessEvent(event.Event) (int, error)      { return 0, nil }
func (stubStorage) FlushEvents() error                         { return nil }
func (stubStorage) Put(schema.Record) error                    { return nil }
func (stubStorage) ConditionalPut(schema.Record, uint64) error { return nil }
func (stubStorage) Get(uint64) (schema.Record, uint64, bool, error) {
	return nil, 0, false, nil
}
func (stubStorage) SubmitQueryAsync(q *query.Query) (<-chan core.QueryResponse, error) {
	ch := make(chan core.QueryResponse, 1)
	ch <- core.QueryResponse{Partial: query.NewPartial(q)}
	return ch, nil
}
func (stubStorage) SubmitQuery(q *query.Query) (*query.Partial, error) {
	return query.NewPartial(q), nil
}

// probeNetproto measures one synchronous event round trip over loopback
// against a stub node.
func probeNetproto(f *fixture, m *metricSet) error {
	srv, err := netproto.Serve("127.0.0.1:0", stubStorage{}, f.sch)
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := netproto.Dial(srv.Addr(), f.sch)
	if err != nil {
		return err
	}
	defer cli.Close()
	const calls = 3000
	for i := 0; i < 200; i++ { // connection and scheduler warm-up
		if _, err := cli.ProcessEvent(f.events[i]); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := cli.ProcessEvent(f.events[i%len(f.events)]); err != nil {
			return err
		}
	}
	m.set("netproto.sync_rtt_us", perOp(time.Since(t0), calls)/1e3)
	return nil
}
