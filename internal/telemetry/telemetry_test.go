package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndPhaseTotals(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("client")
	root := tr.Start("client.query")
	root.Annotate("protocol", "commutative-encryption")
	child := root.Start(PhasePostFilter)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Sorted by start: root first.
	if spans[0].Name != "client.query" || spans[0].Parent != 0 {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Name != PhasePostFilter || spans[1].Parent != spans[0].ID {
		t.Errorf("child span = %+v (root id %d)", spans[1], spans[0].ID)
	}
	if spans[0].Party != "client" || spans[1].Party != "client" {
		t.Errorf("party labels: %q, %q", spans[0].Party, spans[1].Party)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Key != "protocol" {
		t.Errorf("root attrs = %v", spans[0].Attrs)
	}
	if spans[0].DurNs < spans[1].DurNs {
		t.Errorf("root (%d ns) shorter than child (%d ns)", spans[0].DurNs, spans[1].DurNs)
	}
	total, n := r.PhaseTotal("client", PhasePostFilter)
	if n != 1 || total < time.Millisecond {
		t.Errorf("PhaseTotal = %v × %d", total, n)
	}
	if _, n := r.PhaseTotal("mediator", PhasePostFilter); n != 0 {
		t.Errorf("wrong-party total counted %d spans", n)
	}
}

func TestNilAndInertRegistry(t *testing.T) {
	var r *Registry
	tr := r.Tracer("client")
	sp := tr.Start("x")
	sp.Annotate("k", "v")
	sp.Start("y").End()
	sp.End()
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(3)
	if got := r.Spans(); got != nil {
		t.Errorf("nil registry has spans: %v", got)
	}

	inert := &Registry{} // a zero value, not from NewRegistry
	if inert.Tracer("p") != nil {
		t.Error("inert registry returned a live tracer")
	}
	if inert.Counter("c") != nil {
		t.Error("inert registry returned a live counter")
	}
	if inert.Enabled() {
		t.Error("inert registry claims to be enabled")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs", "party", "client")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("msgs", "party", "client") != c {
		t.Error("get-or-create returned a fresh counter")
	}
	if r.Counter("msgs", "party", "mediator") == c {
		t.Error("different labels shared one counter")
	}
	g := r.Gauge("bytes")
	g.Set(7)
	g.Set(9)
	if g.Value() != 9 {
		t.Errorf("gauge = %d", g.Value())
	}
	h := r.Histogram("wait")
	h.Observe(100)            // below first bound (1024)
	h.Observe(5000)           // bucket 3: < 8192
	h.Observe(int64(1) << 60) // overflow bucket
	snap := h.snapshot()
	if snap.Count != 3 || snap.Sum != 100+5000+(int64(1)<<60) {
		t.Errorf("histogram snapshot = %+v", snap)
	}
	if snap.Buckets[0] != 1 || snap.Buckets[len(snap.Buckets)-1] != 1 {
		t.Errorf("bucket layout = %v", snap.Buckets)
	}
}

func TestOpDeltas(t *testing.T) {
	op := CryptoOp("test.op")
	op.Add(10)
	r := NewRegistry()
	if d := r.OpDeltas()["test.op"]; d != 0 {
		t.Errorf("fresh registry delta = %d, want 0", d)
	}
	op.Add(4)
	if d := r.OpDeltas()["test.op"]; d != 4 {
		t.Errorf("delta = %d, want 4", d)
	}
	if CryptoOp("test.op") != op {
		t.Error("CryptoOp not idempotent")
	}
	if op.Count() < 14 {
		t.Errorf("process-wide count = %d", op.Count())
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		party := []string{"client", "mediator", "source:S1", "source:S2"}[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.Tracer(party)
			for i := 0; i < 100; i++ {
				sp := tr.Start("phase")
				sp.Start("inner").End()
				sp.End()
				r.Counter("ops", "party", party).Add(1)
				r.Histogram("lat", "party", party).Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(r.Spans()); got != 4*200 {
		t.Errorf("got %d spans, want %d", got, 4*200)
	}
	if v := r.Counter("ops", "party", "client").Value(); v != 100 {
		t.Errorf("client ops = %d", v)
	}
	ids := map[int64]bool{}
	for _, sp := range r.Spans() {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = true
	}
}
