package netproto

import (
	"math/rand/v2"
	"net"
	"time"
)

// Defaults for ClientConfig. The paper assumes a lossless Infiniband fabric
// and never times anything out; these bounds are what a TCP deployment
// needs so one stalled storage server cannot wedge an ESP router or RTA
// coordinator forever.
const (
	// DefaultCallTimeout bounds one synchronous RPC round trip.
	DefaultCallTimeout = 10 * time.Second
	// dialTimeout bounds connection establishment (and redials).
	dialTimeout = 3 * time.Second
	// DefaultMaxRetries is the extra attempts idempotent ops get after a
	// transport failure.
	DefaultMaxRetries = 2
	// DefaultBackoffBase seeds the exponential redial/retry backoff.
	DefaultBackoffBase = 20 * time.Millisecond
	// DefaultBackoffMax caps the backoff.
	DefaultBackoffMax = 1 * time.Second
	// DefaultEventBatch is the coalescing buffer size selected by
	// EventBatch: -1 (batching opted in without an explicit size).
	DefaultEventBatch = 256
	// DefaultEventLinger bounds how long a coalesced event may sit in the
	// client buffer before a size-incomplete batch is flushed anyway.
	DefaultEventLinger = time.Millisecond
)

// ClientConfig tunes a Client's failure behavior. The zero value selects
// the defaults above with reconnection enabled.
type ClientConfig struct {
	// CallTimeout bounds each RPC round trip (including asynchronous query
	// responses). 0 selects DefaultCallTimeout; negative disables the
	// timeout entirely.
	CallTimeout time.Duration
	// MaxRetries is how many additional attempts idempotent operations
	// (Get, SubmitQuery, FlushEvents) make after a transport-level failure.
	// 0 selects DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// DisableReconnect keeps the original fail-stop behavior: once the
	// connection drops, every subsequent call fails.
	DisableReconnect bool
	// BackoffBase / BackoffMax shape the exponential redial backoff
	// (full jitter in [d/2, d)). 0 selects the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// EventBatch enables client-side event coalescing: ProcessEventAsync
	// buffers up to EventBatch events and ships them as one msgEventBatch
	// frame (flushed earlier by EventLinger, by FlushEvents, or by any
	// synchronous call, which preserves read-your-writes ordering on the
	// connection). 0 forms no batches: every event ships at once as a frame
	// of one and a write error is returned synchronously; -1 selects
	// DefaultEventBatch; 1 is equivalent to 0.
	EventBatch int
	// EventLinger bounds how long a buffered event may wait for its batch
	// to fill. 0 selects DefaultEventLinger; negative disables the timer
	// (size/flush-triggered draining only). Ignored unless EventBatch > 1.
	EventLinger time.Duration
	// Dialer overrides the transport dialer; the fault-injection harness
	// uses it to hand the client flaky connections. Nil means plain TCP.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Metrics, when set, instruments the client's RPCs (see
	// NewClientMetrics). Nil disables instrumentation at zero cost.
	Metrics *Metrics
}

// withDefaults resolves zero fields to their defaults.
func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.EventBatch < 0 {
		cfg.EventBatch = DefaultEventBatch
	} else if cfg.EventBatch == 1 {
		cfg.EventBatch = 0
	}
	if cfg.EventLinger == 0 {
		cfg.EventLinger = DefaultEventLinger
	} else if cfg.EventLinger < 0 {
		cfg.EventLinger = 0
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return cfg
}

// backoffFor returns the jittered exponential delay for the n-th
// consecutive failure (n >= 1): full jitter in [d/2, d) with d capped at
// BackoffMax.
func (cfg ClientConfig) backoffFor(n int) time.Duration {
	d := cfg.BackoffBase
	for i := 1; i < n && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + rand.N(half)
}
