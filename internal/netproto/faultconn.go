package netproto

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedFault marks a failure produced by a FaultPlan, so tests can
// tell injected faults from real ones.
var ErrInjectedFault = errors.New("netproto: injected fault")

// FaultPlan is a shared, live-mutable fault-injection policy for network
// connections: every conn wrapped by (or dialed through) the plan consults
// it on each Read/Write, so a test can flip faults on and off mid-flight.
// It simulates the failure modes a TCP storage fabric actually exhibits —
// slow links (read delays), dead servers (dial refusal) and crashed
// connections (resets) — against the real client/server stack.
//
// The zero value injects nothing; all methods are safe for concurrent use.
type FaultPlan struct {
	mu         sync.Mutex
	readDelay  time.Duration
	failDial   bool
	resetEvery int // close the conn on every Nth write (0 = off)
	writesLeft int
	conns      map[*faultConn]struct{}
	injected   uint64 // faults fired (observability)
}

// NewFaultPlan returns an empty (fault-free) plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{conns: make(map[*faultConn]struct{})}
}

// Wrap returns conn with the plan's faults applied to it.
func (p *FaultPlan) Wrap(conn net.Conn) net.Conn {
	fc := &faultConn{Conn: conn, plan: p}
	p.mu.Lock()
	if p.conns == nil {
		p.conns = make(map[*faultConn]struct{})
	}
	p.conns[fc] = struct{}{}
	p.mu.Unlock()
	return fc
}

// Dialer returns a ClientConfig.Dialer that refuses to connect while
// FailDial is set and wraps every successful connection in the plan.
func (p *FaultPlan) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		p.mu.Lock()
		fail := p.failDial
		if fail {
			p.injected++
		}
		p.mu.Unlock()
		if fail {
			return nil, errors.New("netproto: injected fault: dial refused")
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return p.Wrap(conn), nil
	}
}

// SetReadDelay stalls every Read by d (0 = off).
func (p *FaultPlan) SetReadDelay(d time.Duration) { p.mu.Lock(); p.readDelay = d; p.mu.Unlock() }

// SetFailDial makes the plan's Dialer refuse connections — a dead server.
func (p *FaultPlan) SetFailDial(v bool) { p.mu.Lock(); p.failDial = v; p.mu.Unlock() }

// SetResetEvery closes the connection on every n-th write, before any
// bytes of that write reach the wire (so frames are never torn and the
// peer sees a clean EOF after the previously delivered frames). 0 disables.
func (p *FaultPlan) SetResetEvery(n int) {
	p.mu.Lock()
	p.resetEvery = n
	p.writesLeft = n
	p.mu.Unlock()
}

// ResetAll immediately closes every live connection under the plan.
func (p *FaultPlan) ResetAll() {
	p.mu.Lock()
	conns := make([]*faultConn, 0, len(p.conns))
	for fc := range p.conns {
		conns = append(conns, fc)
	}
	p.injected += uint64(len(conns))
	p.mu.Unlock()
	for _, fc := range conns {
		fc.Close()
	}
}

// Heal clears every configured fault (live conns stay up).
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	p.readDelay = 0
	p.failDial = false
	p.resetEvery, p.writesLeft = 0, 0
	p.mu.Unlock()
}

// Injected returns how many faults fired so far.
func (p *FaultPlan) Injected() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

func (p *FaultPlan) remove(fc *faultConn) {
	p.mu.Lock()
	delete(p.conns, fc)
	p.mu.Unlock()
}

// resetNextWrite reports whether the next Write resets the connection,
// decided under the plan lock so the IO itself runs unlocked.
func (p *FaultPlan) resetNextWrite() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resetEvery == 0 {
		return false
	}
	p.writesLeft--
	if p.writesLeft > 0 {
		return false
	}
	p.writesLeft = p.resetEvery
	p.injected++
	return true
}

// faultConn applies a FaultPlan to one net.Conn.
type faultConn struct {
	net.Conn
	plan      *FaultPlan
	closeOnce sync.Once
}

func (f *faultConn) Read(b []byte) (int, error) {
	f.plan.mu.Lock()
	d := f.plan.readDelay
	f.plan.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return f.Conn.Read(b)
}

func (f *faultConn) Write(b []byte) (int, error) {
	if f.plan.resetNextWrite() {
		// Close before writing: the peer sees every prior frame intact,
		// then EOF — a clean crash between frames.
		f.Close()
		return 0, errors.Join(ErrInjectedFault, errors.New("connection reset"))
	}
	return f.Conn.Write(b)
}

func (f *faultConn) Close() error {
	f.plan.remove(f)
	var err error
	f.closeOnce.Do(func() { err = f.Conn.Close() })
	return err
}
