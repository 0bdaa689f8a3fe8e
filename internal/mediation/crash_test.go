package mediation

import (
	"errors"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// Mid-protocol crash tests: a party dies at a round boundary and every
// survivor must surface a *ProtocolError attributing the failure to the
// dead party — within the deadline, leaking nothing.

// TestSourceCrashMidProtocol kills the mediator↔source-of-R1 link at a
// protocol-specific round boundary (the last recv the mediator performs on
// it), for every protocol. The client's error must blame source:R1 — the
// mediator relays the origin, it does not re-blame itself.
func TestSourceCrashMidProtocol(t *testing.T) {
	cases := []struct {
		proto  Protocol
		recvOp int // 0-based mediator-side recv index to die at
	}{
		{ProtocolPlaintext, 1},   // ack(0), partial result(1)
		{ProtocolMobileCode, 1},  // ack(0), encrypted partial(1)
		{ProtocolDAS, 1},         // ack(0), index tables(1)
		{ProtocolCommutative, 2}, // ack(0), offer(1), cross-back(2)
		{ProtocolPM, 2},          // ack(0), coeffs(1), evals(2)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.proto.String(), func(t *testing.T) {
			snap := testutil.Snapshot()
			n := newTestNetwork(t, nil)
			faultRoute(n, "R1", &transport.FaultPlan{
				Class: transport.FaultClose, SendOp: -1, RecvOp: tc.recvOp,
			})
			params := fastParams()
			params.Timeout = chaosTimeout
			err := testutil.WithinDeadline(t, 2*chaosTimeout, func() error {
				_, qerr := n.Query(fixtureSQL, tc.proto, params)
				return qerr
			})
			if err == nil {
				t.Fatal("query succeeded despite the source link dying mid-protocol")
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("crash error is not a *ProtocolError: %v", err)
			}
			if pe.Party != "source:R1" {
				t.Errorf("failure attributed to %q, want source:R1 (err: %v)", pe.Party, err)
			}
			n.SourceErrors()
			testutil.CheckGoroutines(t, snap)
		})
	}
}

// TestSilentSourceTimesOut replaces R1's source with one that accepts the
// link and then never answers. With the same per-operation deadline armed
// everywhere, the client's wait started first, so the client usually times
// out (blaming its own silent peer, the mediator) before the mediator's
// source:R1 attribution can reach it — the finer attribution lives in the
// mediator's own error and its timeout counter. When the relayed timeout
// wins the race instead, it still wraps transport.ErrTimeout, so every
// assertion holds for either timer order. (When a source dies on a LATER
// round, the mediator's earlier timeout does propagate; that path is
// TestSourceCrashMidProtocol.)
func TestSilentSourceTimesOut(t *testing.T) {
	snap := testutil.Snapshot()
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.Mediator.Telemetry = reg
	n.Mediator.Routes["R1"] = func() (transport.Conn, error) {
		a, _ := transport.Pair() // nobody ever serves the far end
		return a, nil
	}
	params := fastParams()
	params.Timeout = chaosTimeout
	clientSide, mediatorSide := transport.Pair()
	medErrCh := make(chan error, 1)
	go func() {
		err := n.Mediator.HandleSession(mediatorSide)
		mediatorSide.Close()
		medErrCh <- err
	}()
	start := time.Now()
	err := testutil.WithinDeadline(t, 2*chaosTimeout, func() error {
		_, qerr := n.Client.Query(clientSide, fixtureSQL, ProtocolCommutative, params)
		return qerr
	})
	clientSide.Close()
	medErr := <-medErrCh
	if elapsed := time.Since(start); elapsed > 2*chaosTimeout {
		t.Errorf("abort took %v, want within 2× the %v deadline", elapsed, chaosTimeout)
	}
	var pe *ProtocolError
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("client error = %v, want a *ProtocolError", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("client error does not wrap transport.ErrTimeout: %v", err)
	}
	if medErr == nil || !errors.As(medErr, &pe) {
		t.Fatalf("mediator error = %v, want a *ProtocolError", medErr)
	}
	if pe.Party != "source:R1" {
		t.Errorf("mediator attributed the silence to %q, want source:R1 (err: %v)", pe.Party, medErr)
	}
	if !errors.Is(medErr, transport.ErrTimeout) {
		t.Errorf("mediator error does not wrap transport.ErrTimeout: %v", medErr)
	}
	if got := reg.Counter("mediation_timeouts", "party", "mediator").Value(); got < 1 {
		t.Errorf("mediation_timeouts{party=mediator} = %d, want >= 1", got)
	}
	testutil.CheckGoroutines(t, snap)
}

// TestRelayedTimeoutStaysTimeout runs a query without a deadline against a
// source link whose dialer armed one. Only the mediator's timer fires, so
// the client hears the relayed source:R1 timeout. It must still match
// transport.ErrTimeout and stay retryable, and only the mediator, whose
// own deadline fired, counts it in mediation_timeouts.
func TestRelayedTimeoutStaysTimeout(t *testing.T) {
	snap := testutil.Snapshot()
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	defer n.SetTelemetry(nil)
	n.Mediator.Routes["R1"] = func() (transport.Conn, error) {
		a, _ := transport.Pair() // nobody ever serves the far end
		a.SetTimeout(100 * time.Millisecond)
		return a, nil
	}
	_, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Party != "source:R1" {
		t.Fatalf("client error = %v, want a *ProtocolError blaming source:R1", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("relayed timeout does not wrap transport.ErrTimeout: %v", err)
	}
	if !resilience.Retryable(err) {
		t.Errorf("relayed timeout is not retryable: %v", err)
	}
	for party, want := range map[string]int64{"client": 0, "mediator": 1} {
		if got := reg.Counter("mediation_timeouts", "party", party).Value(); got != want {
			t.Errorf("mediation_timeouts{party=%s} = %d, want %d", party, got, want)
		}
	}
	testutil.CheckGoroutines(t, snap)
}

// TestSilentMediatorTimesOut is the client-side bound: a mediator that
// accepts the request and never answers must surface as a *ProtocolError
// blaming the mediator and wrapping transport.ErrTimeout — the error shape
// that distinguishes "mediator unreachable" from a source dying deeper in.
func TestSilentMediatorTimesOut(t *testing.T) {
	snap := testutil.Snapshot()
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.Client.Telemetry = reg
	defer n.SetTelemetry(nil)
	clientSide, mediatorSide := transport.Pair()
	defer mediatorSide.Close() // accepted, never served
	params := fastParams()
	params.Timeout = time.Second
	err := testutil.WithinDeadline(t, 2*time.Second, func() error {
		_, qerr := n.Client.Query(clientSide, fixtureSQL, ProtocolPlaintext, params)
		return qerr
	})
	clientSide.Close()
	if err == nil {
		t.Fatal("query succeeded against a silent mediator")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("timeout error is not a *ProtocolError: %v", err)
	}
	if pe.Party != "mediator" {
		t.Errorf("silence attributed to %q, want mediator (err: %v)", pe.Party, err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("client timeout does not wrap transport.ErrTimeout: %v", err)
	}
	if got := reg.Counter("mediation_timeouts", "party", "client").Value(); got != 1 {
		t.Errorf("mediation_timeouts{party=client} = %d, want 1", got)
	}
	testutil.CheckGoroutines(t, snap)
}

// TestMediatorCrashMidProtocol kills the client↔mediator link after the
// first protocol message: the client must report the mediator dead.
func TestMediatorCrashMidProtocol(t *testing.T) {
	snap := testutil.Snapshot()
	n := newTestNetwork(t, nil)
	clientSide, mediatorSide := transport.Pair()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A mediator that dies right after reading the request.
		_, _ = mediatorSide.Recv()
		mediatorSide.Close()
	}()
	params := fastParams()
	params.Timeout = chaosTimeout
	err := testutil.WithinDeadline(t, 2*chaosTimeout, func() error {
		_, qerr := n.Client.Query(clientSide, fixtureSQL, ProtocolDAS, params)
		return qerr
	})
	clientSide.Close()
	<-done
	if err == nil {
		t.Fatal("query succeeded despite the mediator dying")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("crash error is not a *ProtocolError: %v", err)
	}
	if pe.Party != "mediator" {
		t.Errorf("failure attributed to %q, want mediator (err: %v)", pe.Party, err)
	}
	testutil.CheckGoroutines(t, snap)
}
