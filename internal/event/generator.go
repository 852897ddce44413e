package event

import "math/rand"

// Generator produces a deterministic synthetic CDR stream with the shape the
// AIM benchmark requires (§5): callers drawn uniformly from the entity
// population, realistic call durations and costs, and a configurable
// long-distance fraction. A Generator is not safe for concurrent use; create
// one per producing goroutine with distinct seeds.
type Generator struct {
	rng *rand.Rand

	// Entities is the number of subscribers; callers are drawn uniformly
	// from [1, Entities].
	Entities uint64
	// LongDistanceFraction is the probability that a call is long-distance.
	LongDistanceFraction float64
	// MaxDuration is the maximum call duration in seconds (exclusive).
	MaxDuration int64
	// CostPerSecond prices calls; long-distance calls cost 3x.
	CostPerSecond float64

	// now is the generator's logical clock in milliseconds. Each event
	// advances it by StepMillis so runs are reproducible.
	now        int64
	StepMillis int64
}

// NewGenerator returns a generator over the given entity population, seeded
// deterministically.
func NewGenerator(entities uint64, seed int64) *Generator {
	return &Generator{
		rng:                  rand.New(rand.NewSource(seed)),
		Entities:             entities,
		LongDistanceFraction: 0.3,
		MaxDuration:          3600,
		CostPerSecond:        0.002,
		now:                  1_420_070_400_000, // 2015-01-01T00:00:00Z, the paper's era
		StepMillis:           1,
	}
}

// Now returns the generator's current logical time in milliseconds.
func (g *Generator) Now() int64 { return g.now }

// Next fills e with the next synthetic event and advances the logical clock.
func (g *Generator) Next(e *Event) {
	e.Caller = 1 + uint64(g.rng.Int63n(int64(g.Entities)))
	e.Callee = 1 + uint64(g.rng.Int63n(int64(g.Entities)))
	e.Timestamp = g.now
	// Call durations are roughly exponential with a two-minute mean —
	// most calls are short, the tail reaches MaxDuration.
	e.Duration = 1 + int64(g.rng.ExpFloat64()*120)
	if e.Duration > g.MaxDuration {
		e.Duration = g.MaxDuration
	}
	e.LongDistance = g.rng.Float64() < g.LongDistanceFraction
	cost := float64(e.Duration) * g.CostPerSecond
	if e.LongDistance {
		cost *= 3
	}
	// Round to cents so aggregates are stable across runs and platforms.
	e.Cost = float64(int64(cost*100+0.5)) / 100
	g.now += g.StepMillis
}

// NextFor is like Next but forces the caller entity, which is useful for
// tests that need a known entity to receive a known number of events.
func (g *Generator) NextFor(e *Event, caller uint64) {
	g.Next(e)
	e.Caller = caller
}
