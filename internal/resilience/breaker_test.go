package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// clock is a settable test clock.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(t *testing.T, cfg BreakerConfig) (*Breaker, *clock, *[]string) {
	t.Helper()
	ck := &clock{now: time.Unix(1000, 0)}
	transitions := &[]string{}
	var mu sync.Mutex
	cfg.Now = ck.Now
	cfg.OnTransition = func(peer string, from, to State) {
		mu.Lock()
		*transitions = append(*transitions, from.String()+">"+to.String())
		mu.Unlock()
	}
	return NewBreaker("src1:7000", cfg), ck, transitions
}

func TestBreakerLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, ck, transitions := testBreaker(t, BreakerConfig{
		Window:      8,
		MinSamples:  4,
		OpenTimeout: time.Second,
		Telemetry:   reg,
	})
	boom := errors.New("dial refused")

	// Closed: failures below MinSamples never trip.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow %d: %v", i, err)
		}
		b.Record(boom)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 3 failures = %v, want closed (MinSamples=4)", got)
	}

	// The fourth failure reaches MinSamples at 100% failure rate: trip.
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow before trip: %v", err)
	}
	b.Record(boom)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after trip = %v, want open", got)
	}

	// Open: fast-fail with the typed error, no network touched.
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open Allow = %v, want ErrCircuitOpen", err)
	}

	// Open timeout elapses: the next Allow is the half-open probe, and
	// a second caller fast-fails while that one probe is in flight.
	ck.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe Allow = %v, want ErrCircuitOpen (one probe)", err)
	}

	// Probe fails: re-open, timer restarted.
	b.Record(boom)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow right after re-open = %v, want ErrCircuitOpen", err)
	}

	// Second probe succeeds: re-close with a clean window.
	ck.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	// The reset window means one fresh failure cannot re-trip.
	if err := b.Allow(); err != nil {
		t.Fatalf("closed Allow after re-close: %v", err)
	}
	b.Record(boom)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 1 post-reset failure = %v, want closed", got)
	}

	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if len(*transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", *transitions, want)
	}
	for i, w := range want {
		if (*transitions)[i] != w {
			t.Fatalf("transition %d = %q, want %q (full %v)", i, (*transitions)[i], w, *transitions)
		}
	}
	if got := reg.Counter("breaker_opened", "peer", "src1:7000").Value(); got != 2 {
		t.Errorf("breaker_opened = %d, want 2", got)
	}
	if got := reg.Counter("breaker_fastfails", "peer", "src1:7000").Value(); got != 3 {
		t.Errorf("breaker_fastfails = %d, want 3", got)
	}
	if got := reg.Counter("breaker_probes", "peer", "src1:7000").Value(); got != 2 {
		t.Errorf("breaker_probes = %d, want 2", got)
	}
	if got := reg.Gauge("breaker_state", "peer", "src1:7000").Value(); got != int64(StateClosed) {
		t.Errorf("breaker_state gauge = %d, want %d", got, StateClosed)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b, _, _ := testBreaker(t, BreakerConfig{Window: 4, MinSamples: 4})
	boom := errors.New("x")
	// Two early failures slide out of the 4-outcome window, so the
	// third meets a window of 1/4 failed, not the cumulative 3/6 that
	// would trip it.
	outcomes := []error{boom, boom, nil, nil, nil, boom}
	for i, out := range outcomes {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow %d: %v", i, err)
		}
		b.Record(out)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed (window slid the early failures out)", got)
	}
}

// TestBreakerSuccessNeverTrips is the regression for a success that
// trips the breaker: the pool asks its governor only around a dial, so
// a breaker opened by the dial that built the live link would never be
// asked again. Only a failure may trip a closed breaker.
func TestBreakerSuccessNeverTrips(t *testing.T) {
	boom := errors.New("dial refused")
	for _, tc := range []struct {
		name  string
		cfg   BreakerConfig
		fails int
	}{
		{"soak config", BreakerConfig{Window: 8, MinSamples: 2}, 1},
		{"defaults", BreakerConfig{}, 4},
	} {
		b, _, _ := testBreaker(t, tc.cfg)
		for i := 0; i <= tc.fails; i++ {
			if err := b.Allow(); err != nil {
				t.Fatalf("%s: Allow %d: %v", tc.name, i, err)
			}
			if i < tc.fails {
				b.Record(boom)
			} else {
				b.Record(nil)
			}
		}
		if got := b.State(); got != StateClosed {
			t.Errorf("%s: state after %d refused dials and one success = %v, want closed", tc.name, tc.fails, got)
		}
	}
}

func TestBreakerSetGovernor(t *testing.T) {
	set := NewBreakerSet(BreakerConfig{Window: 4, MinSamples: 2, OpenTimeout: time.Hour})
	boom := errors.New("refused")
	// Trip src1 only; src2 stays closed — per-peer isolation.
	for i := 0; i < 2; i++ {
		if err := set.Allow("src1:7000"); err != nil {
			t.Fatalf("allow src1 %d: %v", i, err)
		}
		set.Record("src1:7000", boom)
	}
	if err := set.Allow("src1:7000"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("src1 after trip: %v, want ErrCircuitOpen", err)
	}
	if err := set.Allow("src2:7000"); err != nil {
		t.Fatalf("src2 (healthy peer): %v", err)
	}
	set.Record("src2:7000", nil)

	var nilSet *BreakerSet
	if err := nilSet.Allow("anything"); err != nil {
		t.Fatalf("nil set Allow: %v", err)
	}
	nilSet.Record("anything", boom)
}
