package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Deadlines: in-memory pair.

func TestChanConnRecvTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	b.SetTimeout(30 * time.Millisecond)
	start := time.Now()
	if _, err := b.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv on silent pair = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout fired far too late")
	}
	// A timeout is not sticky: the link still works once traffic arrives.
	if err := a.Send(Message{Type: "late"}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Type != "late" {
		t.Errorf("recv after timeout = %v, %v; want the late message", m, err)
	}
}

func TestChanConnSendTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	a.SetTimeout(30 * time.Millisecond)
	// Fill the buffered channel so the next send blocks.
	var err error
	for i := 0; i < 2000; i++ {
		if err = a.Send(Message{Type: "fill"}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("send into full pair = %v, want ErrTimeout", err)
	}
}

func TestSetTimeoutDisable(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	b.SetTimeout(20 * time.Millisecond)
	b.SetTimeout(0) // disable again
	go func() {
		time.Sleep(60 * time.Millisecond) // longer than the cancelled timeout
		a.Send(Message{Type: "slow"})
	}()
	if m, err := b.Recv(); err != nil || m.Type != "slow" {
		t.Errorf("recv with disabled timeout = %v, %v", m, err)
	}
}

// ---------------------------------------------------------------------------
// Deadlines: TCP.

func TestTCPRecvTimeout(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	speak := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		<-speak // stay silent until told
		done <- c.Send(Message{Type: "late"})
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	if _, err := c.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv from silent tcp peer = %v, want ErrTimeout", err)
	}
	// A first-byte timeout must not poison the stream: the decoder has
	// consumed nothing, so the next Recv sees a whole frame.
	close(speak)
	c.SetTimeout(2 * time.Second)
	m, err := c.Recv()
	if err != nil || m.Type != "late" {
		t.Errorf("recv after timeout = %v, %v; want the late message", m, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPCleanCloseEOF(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close() // clean shutdown, no message
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("recv after clean peer close = %v, want io.EOF (same as the in-memory pair)", err)
	}
}

// frameHeaderBytes hand-builds the header of a data frame of session 0:
// a type tag of typeLen bytes and a body of bodyLen bytes follow it.
func frameHeaderBytes(typeLen, bodyLen uint64) []byte {
	h := []byte{frameVersion << frameVersionShift, 0}
	h = binary.AppendUvarint(h, typeLen)
	return binary.AppendUvarint(h, bodyLen)
}

// TestTCPRecvErrorWrapped closes the stream inside a frame — after a
// plausible header and some garbage, or inside the header itself. That
// is a cut frame, not an orderly shutdown: Recv must not report bare
// io.EOF, must wrap the failure as a transport error, and must keep
// returning it.
func TestTCPRecvErrorWrapped(t *testing.T) {
	for name, stream := range map[string][]byte{
		"body":   append(frameHeaderBytes(4, 64), 0xff, 0xff, 0xff, 0xff),
		"header": frameHeaderBytes(1, 1)[:3],
	} {
		t.Run(name, func(t *testing.T) {
			p1, p2 := net.Pipe()
			c := WrapNetConn(p2)
			defer c.Close()
			go func() {
				p1.Write(stream)
				p1.Close()
			}()
			_, err := c.Recv()
			if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("recv of a cut frame = %v, want io.ErrUnexpectedEOF", err)
			}
			if !strings.Contains(err.Error(), "transport: tcp recv:") {
				t.Errorf("recv error not wrapped: %v", err)
			}
			if _, again := c.Recv(); again == nil || again.Error() != err.Error() {
				t.Errorf("second recv = %v, want the sticky %v", again, err)
			}
		})
	}
}

// TestTCPMidFrameTimeoutPoisonsLink stalls the peer inside a frame: the
// header promises 64 bytes, 10 arrive. The stream position is lost, so
// the failure must not read as an idle ErrTimeout (the session mux would
// retry it forever); it is sticky, and stays a dead link that a fresh
// dial can recover from (io.ErrUnexpectedEOF). The second case stalls
// inside the header itself.
func TestTCPMidFrameTimeoutPoisonsLink(t *testing.T) {
	for name, stream := range map[string][]byte{
		"body":   append(frameHeaderBytes(0, 64), make([]byte, 10)...),
		"header": frameHeaderBytes(0, 64)[:3],
	} {
		t.Run(name, func(t *testing.T) {
			p1, p2 := net.Pipe()
			defer p1.Close()
			c := WrapNetConn(p2)
			defer c.Close()
			c.SetTimeout(50 * time.Millisecond)
			go p1.Write(stream)
			_, err := c.Recv()
			if err == nil || errors.Is(err, ErrTimeout) {
				t.Fatalf("recv stalled mid-frame = %v, want a non-timeout link error", err)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("recv stalled mid-frame = %v, want io.ErrUnexpectedEOF on the chain", err)
			}
			start := time.Now()
			_, again := c.Recv()
			if again == nil || again.Error() != err.Error() {
				t.Errorf("second recv = %v, want the sticky %v", again, err)
			}
			if d := time.Since(start); d > 25*time.Millisecond {
				t.Errorf("second recv took %v, want an immediate sticky error", d)
			}
		})
	}
}

// TestTCPRefusesOtherFormat feeds frames a peer of another format
// writes — the previous format's 16-bit type length, whose first byte
// is 0, and a header of padded uvarints — and a frame that needs more
// than the four opcode bits. Recv refuses each at its header, and the
// link stays poisoned; Send refuses an opcode it cannot encode.
func TestTCPRefusesOtherFormat(t *testing.T) {
	for name, stream := range map[string][]byte{
		"format 0":       {0, 4, 0, 0, 0, 3, 'p', 'i', 'n', 'g', 1, 2, 3},
		"format 2":       append([]byte{2 << frameVersionShift}, frameHeaderBytes(1, 0)[1:]...),
		"padded uvarint": {frameVersion << frameVersionShift, 0x80, 0x00, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			p1, p2 := net.Pipe()
			defer p1.Close()
			c := WrapNetConn(p2)
			defer c.Close()
			c.SetTimeout(2 * time.Second)
			go p1.Write(stream)
			_, err := c.Recv()
			if !errors.Is(err, errFormat) {
				t.Fatalf("recv of a frame of another format = %v, want errFormat", err)
			}
			if _, again := c.Recv(); again == nil || again.Error() != err.Error() {
				t.Errorf("second recv = %v, want the sticky %v", again, err)
			}
		})
	}
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := WrapNetConn(p1)
	defer c.Close()
	if err := c.Send(Message{Op: opLimit}); err == nil || c.Stats().BytesSent() != 0 {
		t.Errorf("send of opcode %d = %v after %d bytes, want a refusal before any", opLimit, err, c.Stats().BytesSent())
	}
}

// ---------------------------------------------------------------------------
// Message size limit.

// TestTCPOversizedHeader feeds hand-built headers whose declared frame
// exceeds the limit — through the body length, and through the type
// length alone — or whose type tag exceeds maxTypeLen under a limit
// that would hold it. Recv must reject each from the header, before
// reading or allocating anything more, and the connection stays
// poisoned.
func TestTCPOversizedHeader(t *testing.T) {
	for name, tc := range map[string]struct {
		hdr   []byte
		limit int64
	}{
		"body":          {frameHeaderBytes(3, math.MaxUint32), 4096},
		"type tag":      {frameHeaderBytes(math.MaxUint16, 0), 4096},
		"type tag 64 K": {frameHeaderBytes(maxTypeLen+1, 0), 1 << 20},
	} {
		hdr := tc.hdr
		t.Run(name, func(t *testing.T) {
			p1, p2 := net.Pipe()
			defer p1.Close()
			c := WrapNetConnLimit(p2, tc.limit)
			defer c.Close()
			// The header is all the peer ever sends: a Recv that tried to
			// read the declared frame would stall into a mid-frame timeout.
			c.SetTimeout(2 * time.Second)
			go p1.Write(hdr)
			_, err := c.Recv()
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("recv of an oversized declared frame = %v, want ErrTooLarge", err)
			}
			if !strings.Contains(err.Error(), "transport: tcp recv:") {
				t.Errorf("size error not wrapped: %v", err)
			}
			// Poisoned: the stream position inside the giant frame is lost.
			if _, err := c.Recv(); !errors.Is(err, ErrTooLarge) {
				t.Errorf("second recv = %v, want sticky ErrTooLarge", err)
			}
		})
	}
}

// TestTCPSendRejectsUnframable pins that a type tag past maxTypeLen is
// refused with a typed error, not sent.
func TestTCPSendRejectsUnframable(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := WrapNetConn(p1)
	defer c.Close()
	err := c.Send(Message{Type: strings.Repeat("t", math.MaxUint16+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("send of a %d-byte type tag = %v, want ErrTooLarge", math.MaxUint16+1, err)
	}
	if got := c.Stats().BytesSent(); got != 0 {
		t.Errorf("refused send wrote %d bytes", got)
	}
}

// TestTCPOversizedMessage sends a real message past a small receive limit.
func TestTCPOversizedMessage(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := WrapNetConn(p1)
	receiver := WrapNetConnLimit(p2, 4096)
	defer sender.Close()
	defer receiver.Close()
	go func() {
		// net.Pipe is synchronous: this send blocks once the receiver
		// stops reading, and fails when the test closes the pipe. Both
		// outcomes are fine; the assertion lives on the receive side.
		sender.Send(Message{Type: "big", Body: make([]byte, 64<<10)})
	}()
	if _, err := receiver.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("recv of 64 KiB frame with 4 KiB limit = %v, want ErrTooLarge", err)
	}
}

// TestTCPLimitAllowsNormalTraffic pins that the default limit does not get
// in the way of ordinary messages.
func TestTCPLimitAllowsNormalTraffic(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := WrapNetConn(p1)
	receiver := WrapNetConnLimit(p2, 1<<20)
	defer sender.Close()
	defer receiver.Close()
	go sender.Send(Message{Type: "ok", Body: make([]byte, 32<<10)})
	m, err := receiver.Recv()
	if err != nil || m.Type != "ok" || len(m.Body) != 32<<10 {
		t.Fatalf("recv under limit = %v, %v", m.Type, err)
	}
}

// ---------------------------------------------------------------------------
// DialRetry.

type flakyDialer struct {
	failures int
	calls    int
}

func (f *flakyDialer) dial(addr string) (Conn, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, errors.New("connection refused")
	}
	a, b := Pair()
	_ = b // the far end is irrelevant here
	return a, nil
}

func TestDialRetryEventualSuccess(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := &flakyDialer{failures: 2}
	var slept []time.Duration
	pol := RetryPolicy{
		Attempts:  5,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  3 * time.Second,
		Seed:      42,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
		Dial:      d.dial,
		Telemetry: reg,
	}
	conn, err := DialRetry("db1:9000", pol)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if d.calls != 3 {
		t.Errorf("dial calls = %d, want 3", d.calls)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 backoffs", slept)
	}
	// Jittered exponential backoff: each delay lands in [base·mult^i/2,
	// base·mult^i] with the default 0.5 jitter.
	for i, s := range slept {
		ideal := 100 * time.Millisecond << i
		if s < ideal/2 || s > ideal {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, s, ideal/2, ideal)
		}
	}
	if got := reg.Counter("transport_dial_attempts", "addr", "db1:9000").Value(); got != 3 {
		t.Errorf("attempts counter = %d, want 3", got)
	}
	if got := reg.Counter("transport_dial_retries", "addr", "db1:9000").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := reg.Counter("transport_dial_failures", "addr", "db1:9000").Value(); got != 0 {
		t.Errorf("failures counter = %d, want 0", got)
	}
}

func TestDialRetryDeterministicSchedule(t *testing.T) {
	schedule := func() []time.Duration {
		var slept []time.Duration
		pol := RetryPolicy{
			Attempts: 4,
			Seed:     7,
			Sleep:    func(d time.Duration) { slept = append(slept, d) },
			Dial:     func(string) (Conn, error) { return nil, errors.New("down") },
		}
		DialRetry("db2:9000", pol)
		return slept
	}
	first, second := schedule(), schedule()
	if len(first) != 3 {
		t.Fatalf("backoffs = %v, want 3", first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("schedule not deterministic at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestDialRetryExhaustion(t *testing.T) {
	reg := telemetry.NewRegistry()
	sentinel := errors.New("network unreachable")
	pol := RetryPolicy{
		Attempts:  3,
		Sleep:     func(time.Duration) {},
		Dial:      func(string) (Conn, error) { return nil, sentinel },
		Telemetry: reg,
	}
	_, err := DialRetry("db3:9000", pol)
	if !errors.Is(err, sentinel) {
		t.Fatalf("exhaustion error = %v, want to wrap the last dial error", err)
	}
	if !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Errorf("error missing attempt count: %v", err)
	}
	if got := reg.Counter("transport_dial_failures", "addr", "db3:9000").Value(); got != 1 {
		t.Errorf("failures counter = %d, want 1", got)
	}
}

func TestBackoffCappedAtMaxDelay(t *testing.T) {
	pol := RetryPolicy{}.withDefaults("x")
	rng := seqRand{state: 1}
	for i := 0; i < 12; i++ {
		if d := pol.backoff(&rng, i); d > pol.MaxDelay {
			t.Errorf("backoff(%d) = %v exceeds cap %v", i, d, pol.MaxDelay)
		}
	}
}

// ---------------------------------------------------------------------------
// Fault injection.

func TestFaultDropSend(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	reg := telemetry.NewRegistry()
	fa := WrapFault(a, &FaultPlan{Class: FaultDrop, SendOp: 0, RecvOp: -1, Telemetry: reg})
	if err := fa.Send(Message{Type: "lost"}); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(Message{Type: "kept"}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Type != "kept" {
		t.Errorf("first delivered message = %v, %v; want the second send", m, err)
	}
	if got := reg.Counter("transport_faults_injected", "class", "drop", "dir", "send").Value(); got != 1 {
		t.Errorf("injection counter = %d, want 1", got)
	}
}

func TestFaultDropRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultDrop, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "eaten"})
	a.Send(Message{Type: "kept"})
	m, err := fb.Recv()
	if err != nil || m.Type != "kept" {
		t.Errorf("recv past dropped message = %v, %v", m, err)
	}
}

func TestFaultDuplicate(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultDuplicate, SendOp: 0, RecvOp: -1})
	fa.Send(Message{Type: "twin", Body: []byte{1}})
	for i := 0; i < 2; i++ {
		m, err := b.Recv()
		if err != nil || m.Type != "twin" {
			t.Fatalf("copy %d = %v, %v", i, m, err)
		}
	}
}

func TestFaultDuplicateRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultDuplicate, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "twin"})
	for i := 0; i < 2; i++ {
		m, err := fb.Recv()
		if err != nil || m.Type != "twin" {
			t.Fatalf("copy %d = %v, %v", i, m, err)
		}
	}
}

func TestFaultCorruptDeterministic(t *testing.T) {
	flip := func() int {
		a, b := Pair()
		defer a.Close()
		defer b.Close()
		fa := WrapFault(a, &FaultPlan{Class: FaultCorrupt, SendOp: 0, RecvOp: -1, Seed: 99})
		orig := []byte{10, 20, 30, 40, 50}
		fa.Send(Message{Type: "c", Body: append([]byte(nil), orig...)})
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		pos := -1
		for i := range orig {
			if m.Body[i] != orig[i] {
				if pos >= 0 {
					t.Fatalf("more than one byte flipped: %v", m.Body)
				}
				pos = i
			}
		}
		if pos < 0 {
			t.Fatal("no byte flipped")
		}
		return pos
	}
	if p1, p2 := flip(), flip(); p1 != p2 {
		t.Errorf("corrupt position not deterministic: %d vs %d", p1, p2)
	}
}

func TestFaultCorruptCopiesBody(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultCorrupt, SendOp: 0, RecvOp: -1})
	body := []byte{1, 2, 3, 4}
	fa.Send(Message{Type: "c", Body: body})
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	// The sender's slice must be untouched — on the in-memory transport
	// the message body is shared, and a fault wrapper that scribbles on
	// the caller's buffer would corrupt protocol state, not the wire.
	for i, v := range []byte{1, 2, 3, 4} {
		if body[i] != v {
			t.Fatalf("sender's body mutated: %v", body)
		}
	}
}

func TestFaultTruncate(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultTruncate, SendOp: 0, RecvOp: -1})
	fa.Send(Message{Type: "t", Body: make([]byte, 10)})
	m, err := b.Recv()
	if err != nil || len(m.Body) != 5 {
		t.Errorf("truncated body = %d bytes, %v; want 5", len(m.Body), err)
	}
}

func TestFaultDelay(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultDelay, SendOp: 0, RecvOp: -1, Delay: 40 * time.Millisecond})
	start := time.Now()
	fa.Send(Message{Type: "slow"})
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("delayed send returned after %v, want >= 40ms", d)
	}
	if m, err := b.Recv(); err != nil || m.Type != "slow" {
		t.Errorf("delayed message = %v, %v", m, err)
	}
}

func TestFaultCloseSend(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultClose, SendOp: 1, RecvOp: -1})
	if err := fa.Send(Message{Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(Message{Type: "second"}); err == nil {
		t.Error("send after injected close succeeded")
	}
	// The peer sees the close as EOF once the first message is drained.
	if m, err := b.Recv(); err != nil || m.Type != "first" {
		t.Fatalf("drain = %v, %v", m, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("peer recv after injected close = %v, want io.EOF", err)
	}
}

func TestFaultCloseRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultClose, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "never-seen"})
	if _, err := fb.Recv(); err == nil {
		t.Error("recv with injected close succeeded")
	}
}

func TestFaultNoneTransparent(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultNone, SendOp: 0, RecvOp: 0})
	for i := 0; i < 3; i++ {
		if err := fa.Send(Message{Type: "m"}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		fc := WrapFault(c, &FaultPlan{Class: FaultTruncate, SendOp: 0, RecvOp: -1})
		done <- fc.Send(Message{Type: "t", Body: make([]byte, 8)})
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Recv()
	if err != nil || len(m.Body) != 4 {
		t.Errorf("truncate over tcp: %d bytes, %v; want 4", len(m.Body), err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFaultClassString(t *testing.T) {
	want := map[FaultClass]string{
		FaultNone: "none", FaultDrop: "drop", FaultDelay: "delay",
		FaultDuplicate: "duplicate", FaultCorrupt: "corrupt",
		FaultTruncate: "truncate", FaultClose: "close",
	}
	for class, name := range want {
		if class.String() != name {
			t.Errorf("%d.String() = %q, want %q", class, class.String(), name)
		}
	}
}
