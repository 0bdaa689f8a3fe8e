package main

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// probeBudget sizes the micro-probes: how many batches per probe and
// how long a batch should last. The reported value is the median batch.
type probeBudget struct {
	batches int
	batch   time.Duration
}

// timeProbe runs the probe's op in batches and returns the median
// nanoseconds per op.
func timeProbe(p probe, b probeBudget) (float64, error) {
	// Warm up and size the batch from one timed call.
	t0 := time.Now()
	if err := p.op(); err != nil {
		return 0, err
	}
	one := time.Since(t0)
	n := 1
	if one > 0 && b.batch > one {
		n = int(b.batch / one)
	}
	perOp := make([]float64, 0, b.batches)
	for i := 0; i < b.batches; i++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			if err := p.op(); err != nil {
				return 0, err
			}
		}
		perOp = append(perOp, float64(time.Since(t0))/float64(n))
	}
	return median(perOp), nil
}

// runProbes measures every micro-probe and returns metric values by name.
func runProbes(in probeInput, b probeBudget) (map[string]float64, error) {
	probes, fixed, cleanup, err := buildProbes(in)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fixed {
		out[f.name] = f.value
	}
	for _, p := range probes {
		if p.allocs {
			var opErr error
			out[p.name] = testing.AllocsPerRun(5, func() {
				if err := p.op(); err != nil {
					opErr = err
				}
			})
			err = opErr
		} else {
			var ns float64
			if ns, err = timeProbe(p, b); err == nil {
				out[p.name] = convertProbe(p, ns)
			}
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("probe %s: %w", p.name, err), cleanup())
		}
	}
	return out, cleanup()
}

// convertProbe turns median ns per op into the probe's unit.
func convertProbe(p probe, ns float64) float64 {
	switch {
	case p.mbPerOp > 0:
		return p.mbPerOp / (ns / 1e9)
	case p.per > 0:
		ns /= p.per
	}
	if p.ms {
		return ns / 1e6
	}
	return ns
}
