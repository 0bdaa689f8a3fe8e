package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// recordingPolicy returns a deterministic policy that captures sleeps.
func recordingPolicy(sleeps *[]time.Duration) Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		Seed:        1,
		Sleep:       func(d time.Duration) { *sleeps = append(*sleeps, d) },
	}
}

// checkBackoffs asserts one sleep per nominal delay, each jittered into
// [nominal/2, nominal].
func checkBackoffs(t *testing.T, sleeps, nominal []time.Duration) {
	t.Helper()
	if len(sleeps) != len(nominal) {
		t.Fatalf("backoffs = %v, want %d jittered from %v", sleeps, len(nominal), nominal)
	}
	for i, d := range nominal {
		if sleeps[i] < d/2 || sleeps[i] > d {
			t.Fatalf("backoff %d = %v, outside [%v, %v]", i, sleeps[i], d/2, d)
		}
	}
}

func TestDoRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.Telemetry = reg
	var ids []string
	var ns []int
	res, err := Do(pol, func(a Attempt) error {
		ids = append(ids, a.QueryID)
		ns = append(ns, a.N)
		if a.N < 3 {
			return fmt.Errorf("recv: %w", transport.ErrTimeout)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Recovered || res.Attempts != 3 {
		t.Fatalf("result = %+v, want recovered in 3 attempts", res)
	}
	if len(ids) != 3 || ids[0] != ids[1] || ids[1] != ids[2] || ids[0] != res.QueryID {
		t.Fatalf("query IDs %v not stable across attempts (result %q)", ids, res.QueryID)
	}
	if ns[0] != 1 || ns[1] != 2 || ns[2] != 3 {
		t.Fatalf("attempt numbers = %v, want 1,2,3", ns)
	}
	checkBackoffs(t, sleeps, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond})
	if got := reg.Counter("retries_attempted").Value(); got != 2 {
		t.Errorf("retries_attempted = %d, want 2", got)
	}
	if got := reg.Counter("queries_recovered").Value(); got != 1 {
		t.Errorf("queries_recovered = %d, want 1", got)
	}
}

func TestDoTerminalStopsImmediately(t *testing.T) {
	var sleeps []time.Duration
	terminal := errors.New("expected message ack, got junk")
	calls := 0
	res, err := Do(recordingPolicy(&sleeps), func(Attempt) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("Do = %v, want the terminal error unchanged", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatal("terminal error wrongly wrapped as retries-exhausted")
	}
	if calls != 1 || res.Attempts != 1 || len(sleeps) != 0 {
		t.Fatalf("calls=%d attempts=%d sleeps=%v, want exactly one attempt", calls, res.Attempts, sleeps)
	}
}

func TestDoExhausts(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.Telemetry = reg
	cause := fmt.Errorf("dial: %w", transport.ErrTimeout)
	res, err := Do(pol, func(Attempt) error { return cause })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Do = %v, want the last cause on the chain", err)
	}
	if res.Attempts != 4 || res.Recovered {
		t.Fatalf("result = %+v, want 4 unrecovered attempts", res)
	}
	checkBackoffs(t, sleeps, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond})
	if got := reg.Counter("queries_exhausted").Value(); got != 1 {
		t.Errorf("queries_exhausted = %d, want 1", got)
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	hintErr := fmt.Errorf("open: %w", hinted{900 * time.Millisecond})
	_, err := Do(pol, func(a Attempt) error {
		if a.N == 1 {
			return hintErr
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// The 900ms hint beats the 100ms nominal backoff.
	if len(sleeps) != 1 || sleeps[0] != 900*time.Millisecond {
		t.Fatalf("backoffs = %v, want the server hint 900ms", sleeps)
	}
}

func TestDoBudgetBoundsRetries(t *testing.T) {
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	now := time.Unix(0, 0)
	pol.Now = func() time.Time { return now }
	pol.Sleep = func(d time.Duration) {
		sleeps = append(sleeps, d)
		now = now.Add(d)
	}
	pol.Budget = 150 * time.Millisecond
	cause := fmt.Errorf("dial: %w", transport.ErrTimeout)
	res, err := Do(pol, func(Attempt) error { return cause })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	// The first backoff (at most 100ms) fits the 150ms budget; the
	// second (over 100ms more) would overrun, so only two attempts run.
	if res.Attempts != 2 || len(sleeps) != 1 {
		t.Fatalf("attempts=%d sleeps=%v, want budget to stop after 2 attempts", res.Attempts, sleeps)
	}
}

func TestDoJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		pol := recordingPolicy(&sleeps)
		pol.Seed = 42
		_, err := Do(pol, func(Attempt) error { return fmt.Errorf("x: %w", transport.ErrTimeout) })
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("Do = %v", err)
		}
		return sleeps
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("sleep schedules %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not reproducible: %v vs %v", a, b)
		}
	}
}

// TestDoJittersZeroPolicy checks that the zero-value Policy — what
// medclient and the soak run — jitters: its sleeps are drawn below the
// nominal 50/100/200ms, not equal to them.
func TestDoJittersZeroPolicy(t *testing.T) {
	var sleeps []time.Duration
	_, err := Do(Policy{Seed: 12345, Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }},
		func(Attempt) error { return fmt.Errorf("x: %w", transport.ErrTimeout) })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	nominal := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	checkBackoffs(t, sleeps, nominal)
	for i, d := range nominal {
		if sleeps[i] == d {
			t.Fatalf("backoffs = %v: the zero-value policy slept the nominal %v unjittered", sleeps, d)
		}
	}
}

// TestDoBackoffCap checks that the doubling stops at the 2s cap.
func TestDoBackoffCap(t *testing.T) {
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.BaseDelay = 1500 * time.Millisecond
	_, err := Do(pol, func(Attempt) error { return fmt.Errorf("x: %w", transport.ErrTimeout) })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	// 1.5s, then 3s and 6s nominal, both capped at 2s.
	checkBackoffs(t, sleeps, []time.Duration{1500 * time.Millisecond, maxDelay, maxDelay})
}
