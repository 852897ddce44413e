package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/workload"
)

// System is a started benchmark deployment.
type System struct {
	Cluster *cluster.Cluster
	Nodes   []*core.StorageNode
	Coord   *rta.Coordinator
	Router  *esp.Router
	// Registry is the shared observability registry (p.Metrics, or a
	// private one when p.Metrics was nil) that every layer reports into.
	Registry *obs.Registry
	wl       *Workload
}

// StartSystem boots `servers` storage nodes configured from p/w and
// preloads `entities` Entity Records by replaying one event per entity.
func StartSystem(p Params, w *Workload, servers int, entities uint64) (*System, error) {
	reg := p.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg := core.Config{
		Schema:      w.Schema,
		Dims:        w.Dims.Store,
		Partitions:  p.Partitions,
		ESPThreads:  p.ESPThreads,
		BucketSize:  p.BucketSize,
		Factory:     w.Dims.Factory(w.Schema),
		MaxBatch:    p.MaxBatch,
		ESPQueueLen: p.ESPQueueLen,
		Overload:    p.Overload,
		Rules:       w.Rules,
		Metrics:     reg,
	}
	cl, nodes, err := cluster.NewLocal(servers, cfg)
	if err != nil {
		return nil, err
	}
	cl.Instrument(reg)
	s := &System{Cluster: cl, Nodes: nodes, Registry: reg, wl: w}
	s.Router = esp.NewRouter(cl)
	rcfg := rta.Config{Metrics: rta.NewMetrics(reg), QueryTimeout: p.QueryTimeout}
	if p.DegradedRTA {
		rcfg.Policy = rta.PolicyDegraded
	}
	s.Coord, err = rta.NewCoordinatorConfig(cl.Nodes(), rcfg)
	if err != nil {
		s.Stop()
		return nil, err
	}
	// Preload: materialize every entity with one event so scans touch the
	// full population. With admission control on, a preload burst can
	// outrun the spill queue; honor the retry-after hints instead of
	// failing the boot.
	gen := event.NewGenerator(entities, p.Seed)
	var ev event.Event
	for e := uint64(1); e <= entities; e++ {
		gen.NextFor(&ev, e)
		for {
			err := s.Router.Ingest(ev)
			if err == nil {
				break
			}
			if retry, ok := core.RetryAfterHint(err); ok {
				time.Sleep(retry)
				continue
			}
			s.Stop()
			return nil, err
		}
	}
	if err := s.Router.Flush(); err != nil {
		s.Stop()
		return nil, err
	}
	// Let merge rounds publish the preload into every main; scheduling on a
	// loaded box can take more than one round, so poll rather than sleep a
	// fixed beat.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Records < int(entities) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	return s, nil
}

// Stop shuts all nodes down.
func (s *System) Stop() {
	for _, n := range s.Nodes {
		n.Stop()
	}
}

// Stats sums the per-node counters.
func (s *System) Stats() core.NodeStats {
	var out core.NodeStats
	for _, n := range s.Nodes {
		st := n.Stats()
		out.EventsProcessed += st.EventsProcessed
		out.RuleFirings += st.RuleFirings
		out.ScanRounds += st.ScanRounds
		out.MergedRecords += st.MergedRecords
		out.QueriesServed += st.QueriesServed
		out.Records += st.Records
	}
	return out
}

// MixedResult reports one mixed-load measurement.
type MixedResult struct {
	RTA rta.ClientStats
	ESP esp.DriverStats
}

// RunMixed drives the benchmark's mixed load against a started system:
// a fixed-rate event stream plus `clients` closed-loop RTA clients issuing
// the uniform Q1–Q7 mix, both for p.Duration.
func RunMixed(s *System, p Params, entities uint64, rate float64, clients int) (MixedResult, error) {
	sources := make([]rta.QuerySource, clients)
	for i := range sources {
		g, err := workload.NewQueryGen(s.wl.Schema, p.Seed+int64(i)+1)
		if err != nil {
			return MixedResult{}, err
		}
		sources[i] = g
	}
	driver := &esp.Driver{
		Gen:  event.NewGenerator(entities, p.Seed+999),
		Rate: rate,
		Sink: s.Router.Ingest,
	}

	var wg sync.WaitGroup
	var espStats esp.DriverStats
	var espErr error
	if rate != 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			espStats, espErr = driver.Run(p.Duration, 0)
		}()
	}
	var rtaStats rta.ClientStats
	if clients > 0 {
		rtaStats = rta.RunClosedLoop(s.Coord, sources, p.Duration)
	}
	wg.Wait()
	if espErr != nil {
		return MixedResult{}, fmt.Errorf("bench: event driver: %w", espErr)
	}
	return MixedResult{RTA: rtaStats, ESP: espStats}, nil
}

// ms converts a duration to milliseconds for table output.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
