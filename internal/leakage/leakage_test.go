package leakage

import (
	"sync"
	"testing"
)

func TestObserveAndRead(t *testing.T) {
	l := NewLedger()
	l.Observe(PartyMediator, "|R1|", 10)
	l.Observe(PartyMediator, "|R1|", 12) // overwrite
	l.Observe(PartyClient, "superset", 40)

	if v, ok := l.Observed(PartyMediator, "|R1|"); !ok || v != 12 {
		t.Errorf("Observed = %d,%v", v, ok)
	}
	if _, ok := l.Observed(PartyMediator, "missing"); ok {
		t.Error("missing item observed")
	}
	items := l.ObservedItems(PartyClient)
	if len(items) != 1 || items["superset"] != 40 {
		t.Errorf("ObservedItems = %v", items)
	}
}

func TestPrimitives(t *testing.T) {
	l := NewLedger()
	l.UsePrimitive(PartySource("S1"), "hash", 5)
	l.UsePrimitive(PartySource("S1"), "hash", 3)
	l.UsePrimitive(PartySource("S2"), "commutative", 1)

	if c := l.PrimitiveCount(PartySource("S1"), "hash"); c != 8 {
		t.Errorf("count = %d, want 8", c)
	}
	if got := l.Primitives(PartySource("S1")); len(got) != 1 || got[0] != "hash" {
		t.Errorf("Primitives = %v", got)
	}
	all := l.AllPrimitives()
	if len(all) != 2 || all[0] != "commutative" || all[1] != "hash" {
		t.Errorf("AllPrimitives = %v", all)
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Observe("p", "i", 1)
	l.UsePrimitive("p", "x", 1)
	if _, ok := l.Observed("p", "i"); ok {
		t.Error("nil ledger observed something")
	}
	if l.PrimitiveCount("p", "x") != 0 || l.Primitives("p") != nil || l.AllPrimitives() != nil || l.ObservedItems("p") != nil {
		t.Error("nil ledger returned data")
	}
}

func TestConcurrentAccess(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Observe(PartyMediator, "x", int64(j))
				l.UsePrimitive(PartyClient, "op", 1)
			}
		}(i)
	}
	wg.Wait()
	if c := l.PrimitiveCount(PartyClient, "op"); c != 800 {
		t.Errorf("concurrent count = %d, want 800", c)
	}
}

func TestPartySourceNaming(t *testing.T) {
	if PartySource("S1") != "source:S1" {
		t.Errorf("PartySource = %q", PartySource("S1"))
	}
}
