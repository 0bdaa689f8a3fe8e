package transport

import (
	"fmt"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// FaultClass enumerates the injectable link faults. Each models a failure
// the mediated protocols must survive (correct result or clean typed
// error — never a hang): lost, slow, replayed, flipped, cut-short and
// mid-round-closed messages.
type FaultClass uint8

const (
	// FaultNone injects nothing; the wrapper is transparent.
	FaultNone FaultClass = iota
	// FaultDrop silently discards the selected message (a send never
	// reaches the wire; a recv is consumed and thrown away).
	FaultDrop
	// FaultDelay holds the selected message for Plan.Delay before
	// passing it on.
	FaultDelay
	// FaultDuplicate delivers the selected message twice.
	FaultDuplicate
	// FaultCorrupt flips one seeded byte of the message body.
	FaultCorrupt
	// FaultTruncate cuts the message body to half its length.
	FaultTruncate
	// FaultClose closes the underlying connection at the selected
	// operation (close-mid-round).
	FaultClose
)

// String implements fmt.Stringer.
func (f FaultClass) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultClose:
		return "close"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// FaultPlan is a deterministic injection schedule for one wrapped
// endpoint. Operations are counted per direction from 0 (the first Send
// is send op 0, the first Recv is recv op 0); the plan selects ops by
// index, so a given (plan, protocol) pair always faults the same round.
type FaultPlan struct {
	// Class is the fault to inject.
	Class FaultClass
	// SendOp selects the 0-based Send operation to fault; negative
	// disables send-side injection.
	SendOp int
	// RecvOp selects the 0-based Recv operation to fault; negative
	// disables recv-side injection.
	RecvOp int
	// Repeat extends the fault to every operation at or after the
	// selected index, not just the one.
	Repeat bool
	// Delay is the hold time for FaultDelay. Default 50ms.
	Delay time.Duration
	// Seed drives the deterministic choices within a faulted message
	// (e.g. which body byte FaultCorrupt flips).
	Seed uint64
	// Telemetry, when set, counts injections in
	// transport_faults_injected labeled by class and direction.
	Telemetry *telemetry.Registry
}

// hits reports whether op index i is selected.
func (p *FaultPlan) hits(sel, i int) bool {
	if p.Class == FaultNone || sel < 0 {
		return false
	}
	if p.Repeat {
		return i >= sel
	}
	return i == sel
}

func (p *FaultPlan) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return 50 * time.Millisecond
}

// WrapFault composes a fault-injecting wrapper over any Conn (in-memory
// or TCP). The wrapper is transparent except at the operations the plan
// selects. It is safe for the same one-sender/one-receiver concurrency
// the underlying transports support.
func WrapFault(c Conn, plan *FaultPlan) Conn {
	return &faultConn{inner: c, plan: plan}
}

// faultConn implements Conn by delegating to inner and perturbing the
// operations its plan selects.
type faultConn struct {
	inner Conn
	plan  *FaultPlan

	mu      sync.Mutex
	sendOps int
	recvOps int
	pending []Message // recv-side duplicates awaiting delivery
}

func (c *faultConn) count(dir string) {
	reg := c.plan.Telemetry
	if reg.Enabled() {
		reg.Counter("transport_faults_injected",
			"class", c.plan.Class.String(), "dir", dir).Add(1)
	}
}

// corruptBody returns a copy of body with one seeded byte flipped. The
// copy matters: on the in-memory transport the slice is shared with the
// sender.
func (c *faultConn) corruptBody(body []byte, op int) []byte {
	if len(body) == 0 {
		return body
	}
	out := make([]byte, len(body))
	copy(out, body)
	pos := mix64(c.plan.Seed, uint64(op)) % uint64(len(out))
	out[pos] ^= 0xff
	return out
}

// Send implements Conn.
func (c *faultConn) Send(m Message) error {
	c.mu.Lock()
	op := c.sendOps
	c.sendOps++
	faulted := c.plan.hits(c.plan.SendOp, op)
	c.mu.Unlock()
	if !faulted {
		return c.inner.Send(m)
	}
	c.count("send")
	switch c.plan.Class {
	case FaultDrop:
		return nil
	case FaultDelay:
		time.Sleep(c.plan.delay())
		return c.inner.Send(m)
	case FaultDuplicate:
		if err := c.inner.Send(m); err != nil {
			return err
		}
		return c.inner.Send(m)
	case FaultCorrupt:
		m.Body = c.corruptBody(m.Body, op)
		return c.inner.Send(m)
	case FaultTruncate:
		m.Body = append([]byte(nil), m.Body[:len(m.Body)/2]...)
		return c.inner.Send(m)
	case FaultClose:
		if err := c.inner.Close(); err != nil {
			return err
		}
		return c.inner.Send(m)
	default:
		return c.inner.Send(m)
	}
}

// Recv implements Conn.
func (c *faultConn) Recv() (Message, error) {
	for {
		c.mu.Lock()
		if len(c.pending) > 0 {
			m := c.pending[0]
			c.pending = c.pending[1:]
			c.mu.Unlock()
			return m, nil
		}
		op := c.recvOps
		c.recvOps++
		faulted := c.plan.hits(c.plan.RecvOp, op)
		c.mu.Unlock()
		if !faulted {
			return c.inner.Recv()
		}
		c.count("recv")
		switch c.plan.Class {
		case FaultDrop:
			// Consume and discard, then keep receiving; the deadline
			// bounds the wait for a message that will never come.
			if _, err := c.inner.Recv(); err != nil {
				return Message{}, err
			}
			continue
		case FaultDelay:
			m, err := c.inner.Recv()
			if err != nil {
				return Message{}, err
			}
			time.Sleep(c.plan.delay())
			return m, nil
		case FaultDuplicate:
			m, err := c.inner.Recv()
			if err != nil {
				return Message{}, err
			}
			c.mu.Lock()
			c.pending = append(c.pending, m)
			c.mu.Unlock()
			return m, nil
		case FaultCorrupt:
			m, err := c.inner.Recv()
			if err != nil {
				return Message{}, err
			}
			m.Body = c.corruptBody(m.Body, op)
			return m, nil
		case FaultTruncate:
			m, err := c.inner.Recv()
			if err != nil {
				return Message{}, err
			}
			m.Body = append([]byte(nil), m.Body[:len(m.Body)/2]...)
			return m, nil
		case FaultClose:
			if err := c.inner.Close(); err != nil {
				return Message{}, err
			}
			return c.inner.Recv()
		default:
			return c.inner.Recv()
		}
	}
}

// Close implements Conn.
func (c *faultConn) Close() error { return c.inner.Close() }

// SetTimeout implements Conn.
func (c *faultConn) SetTimeout(d time.Duration) { c.inner.SetTimeout(d) }

// Stats implements Conn.
func (c *faultConn) Stats() *Stats { return c.inner.Stats() }
