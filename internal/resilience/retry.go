package resilience

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// maxDelay caps the backoff growth: each retry doubles the delay up to
// it.
const maxDelay = 2 * time.Second

// Policy tunes one Do invocation. The zero value is usable: 4 attempts,
// 50ms base backoff doubling to a 2s cap, half-jittered, no elapsed
// budget. Every delay is drawn uniformly from [½, 1] of its nominal
// value, de-synchronizing client fleets; the package Retryable decides
// which errors earn another attempt.
type Policy struct {
	// MaxAttempts bounds total attempts (first try included).
	// Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt. Default 50ms.
	BaseDelay time.Duration
	// Budget, when positive, bounds the total elapsed time across
	// attempts: a retry whose backoff would overrun it is not taken.
	Budget time.Duration
	// Seed feeds the jitter PRNG; 0 derives a stable seed from the
	// query ID, so a run is reproducible given its IDs.
	Seed uint64
	// Sleep is the backoff clock; nil selects time.Sleep. Tests stub
	// it.
	Sleep func(time.Duration)
	// Now is the budget clock; nil selects time.Now.
	Now func() time.Time
	// Telemetry optionally counts retries_attempted,
	// queries_recovered and queries_exhausted. Nil records nothing.
	Telemetry *telemetry.Registry
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// Attempt identifies one try of one logical query: the client-generated
// QueryID is stable across the query's attempts, N counts them from 1.
// Mediation code copies both into Params so sources can discard stale
// partial state from attempts the client has abandoned.
type Attempt struct {
	QueryID string
	N       int
}

// Result summarizes a finished Do.
type Result struct {
	// QueryID is the client-generated identifier all attempts carried.
	QueryID string
	// Attempts is how many times op ran.
	Attempts int
	// Recovered reports a success that needed more than one attempt —
	// a transient fault converted into a served query.
	Recovered bool
}

// Do runs op under the policy: attempts repeat while the error
// classifies retryable, separated by capped seeded-jitter backoff
// (raised to the server's retry-after hint when the error carries one),
// until success, a terminal error (returned unchanged), or attempts/
// budget run out — then the error wraps both ErrRetriesExhausted and
// the last attempt's failure.
func Do(pol Policy, op func(Attempt) error) (Result, error) {
	pol = pol.withDefaults()
	qid := NewQueryID()
	seed := pol.Seed
	if seed == 0 {
		h := fnv.New64a()
		if _, err := h.Write([]byte(qid)); err != nil {
			// hash.Hash.Write never fails; keep errdrop honest.
			panic("resilience: fnv write: " + err.Error())
		}
		seed = h.Sum64()
	}
	rng := seqRand(seed)
	start := pol.Now()
	var lastErr error
	attempts := 0
	for n := 1; n <= pol.MaxAttempts; n++ {
		attempts = n
		err := op(Attempt{QueryID: qid, N: n})
		if err == nil {
			res := Result{QueryID: qid, Attempts: n, Recovered: n > 1}
			if res.Recovered && pol.Telemetry.Enabled() {
				pol.Telemetry.Counter("queries_recovered").Add(1)
			}
			return res, nil
		}
		lastErr = err
		if !Retryable(err) {
			return Result{QueryID: qid, Attempts: n}, err
		}
		if n == pol.MaxAttempts {
			break
		}
		delay := pol.backoff(n, rng.next)
		if hint, ok := RetryAfter(err); ok && hint > delay {
			delay = hint
		}
		if pol.Budget > 0 && pol.Now().Sub(start)+delay > pol.Budget {
			break
		}
		if pol.Telemetry.Enabled() {
			pol.Telemetry.Counter("retries_attempted").Add(1)
		}
		pol.Sleep(delay)
	}
	if pol.Telemetry.Enabled() {
		pol.Telemetry.Counter("queries_exhausted").Add(1)
	}
	return Result{QueryID: qid, Attempts: attempts},
		fmt.Errorf("%w: %d attempts, last: %w", ErrRetriesExhausted, attempts, lastErr)
}

// backoff computes the jittered delay before attempt n+1 (n completed
// attempts so far).
func (p Policy) backoff(n int, next func() uint64) time.Duration {
	d := p.BaseDelay
	for i := 1; i < n && d < maxDelay; i++ {
		d *= 2
	}
	d = min(d, maxDelay)
	// Uniform draw in [½, 1], 53-bit precision.
	u := float64(next()>>11) / float64(1<<53)
	return time.Duration(float64(d) * (1 - u/2))
}

// seqRand is a splitmix64 stream: deterministic jitter without
// math/rand (banned by seclint's weakrand), matching the transport
// dial-retry PRNG.
type seqRand uint64

func (s *seqRand) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
