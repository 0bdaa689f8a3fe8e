package mediation

import (
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// wantPhases lists, per protocol, which (party, phase) pairs a run must
// produce — the measured analogue of the paper's per-phase cost matrix.
var wantPhases = map[Protocol][][2]string{
	ProtocolPlaintext: {
		{leakage.PartyMediator, telemetry.PhaseQuerying},
		{leakage.PartyMediator, telemetry.PhaseMatch},
	},
	ProtocolMobileCode: {
		{leakage.PartyMediator, telemetry.PhaseQuerying},
		{"source:S1", telemetry.PhaseSourceEncrypt},
		{"source:S2", telemetry.PhaseSourceEncrypt},
		{leakage.PartyClient, telemetry.PhasePostFilter},
	},
	ProtocolDAS: {
		{leakage.PartyMediator, telemetry.PhaseQuerying},
		{"source:S1", telemetry.PhaseSourceEncrypt},
		{"source:S2", telemetry.PhaseSourceEncrypt},
		{leakage.PartyClient, telemetry.PhaseTranslate},
		{leakage.PartyMediator, telemetry.PhaseMatch},
		{leakage.PartyClient, telemetry.PhasePostFilter},
	},
	ProtocolCommutative: {
		{leakage.PartyMediator, telemetry.PhaseQuerying},
		{"source:S1", telemetry.PhaseSourceEncrypt},
		{"source:S2", telemetry.PhaseSourceEncrypt},
		{"source:S1", telemetry.PhaseCrossEncrypt},
		{"source:S2", telemetry.PhaseCrossEncrypt},
		{leakage.PartyMediator, telemetry.PhaseMatch},
		{leakage.PartyClient, telemetry.PhasePostFilter},
	},
	ProtocolPM: {
		{leakage.PartyMediator, telemetry.PhaseQuerying},
		{"source:S1", telemetry.PhaseSourceEncrypt},
		{"source:S2", telemetry.PhaseSourceEncrypt},
		{"source:S1", telemetry.PhaseCrossEncrypt},
		{"source:S2", telemetry.PhaseCrossEncrypt},
		{leakage.PartyClient, telemetry.PhasePostFilter},
	},
}

// Every protocol must emit its slice of the shared phase taxonomy, with
// phases nested under per-party session roots.
func TestProtocolSpanTrees(t *testing.T) {
	for proto, want := range wantPhases {
		proto, want := proto, want
		t.Run(proto.String(), func(t *testing.T) {
			reg := checkSpanTree(t, newTestNetwork(t, nil), fixtureSQL, proto, want, "source:S1", "source:S2")
			// The secure protocols must show crypto work in the op deltas.
			if proto == ProtocolCommutative || proto == ProtocolPM || proto == ProtocolDAS {
				if len(reg.OpDeltas()) == 0 {
					t.Errorf("%s run recorded no crypto op deltas", proto)
				}
			}
		})
	}
}

// Unions and aggregates run the same request phase and session tree as
// joins: a querying phase at the mediator, the delivery phases below
// per-party session roots, and traffic counters at every party.
func TestQueryShapeSpanTrees(t *testing.T) {
	r1, _ := testRelations(t)
	t.Run("union", func(t *testing.T) {
		checkSpanTree(t, networkOver(t, nil, r1, r1.Rename("R2")), "SELECT * FROM R1 UNION SELECT * FROM R2", ProtocolCommutative,
			wantPhases[ProtocolMobileCode], "source:S1", "source:S2")
	})
	t.Run("aggregate", func(t *testing.T) {
		// The mobile-code phases, with the one source in place of two.
		var want [][2]string
		for _, pp := range wantPhases[ProtocolMobileCode] {
			switch pp[0] {
			case "source:S1":
				pp[0] = "source:Insurer"
			case "source:S2":
				continue
			}
			want = append(want, pp)
		}
		checkSpanTree(t, aggNetwork(t, nil), "SELECT SUM(units) FROM Claims", ProtocolPM, want, "source:Insurer")
	})
}

// checkSpanTree runs one query over n with a fresh registry at every
// party and checks that it produced each wanted (party, phase) span, that
// every phase span nests under its party's session root, and that the
// client, the mediator and each listed source exported traffic counters.
func checkSpanTree(t *testing.T, n *Network, sql string, proto Protocol, want [][2]string, sources ...string) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	if _, err := n.Query(sql, proto, fastParams()); err != nil {
		t.Fatal(err)
	}
	// A source ends its session — root span, traffic counters — after
	// the client already has its answer; wait for every party's root.
	parties := append([]string{leakage.PartyClient, leakage.PartyMediator}, sources...)
	for deadline := time.Now().Add(5 * time.Second); !sessionsEnded(reg, parties) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, pp := range want {
		if _, cnt := reg.PhaseTotal(pp[0], pp[1]); cnt == 0 {
			t.Errorf("no %q span for party %q", pp[1], pp[0])
		}
	}
	roots := map[int64]string{}
	for _, sp := range reg.Spans() {
		if sp.Name == "session" {
			if sp.Parent != 0 {
				t.Errorf("session span %d has parent %d", sp.ID, sp.Parent)
			}
			roots[sp.ID] = sp.Party
		}
	}
	for _, sp := range reg.Spans() {
		if sp.Name == "session" {
			continue
		}
		if party, ok := roots[sp.Parent]; !ok || party != sp.Party {
			t.Errorf("span %s (party %s) not nested under its party's session root", sp.Name, sp.Party)
		}
		if sp.DurNs < 0 {
			t.Errorf("span %s has negative duration %d", sp.Name, sp.DurNs)
		}
	}
	counted := map[string]bool{}
	for _, c := range reg.Snapshot().Counters {
		if !strings.HasPrefix(c.Name, "transport_") {
			continue
		}
		for i := 0; i+1 < len(c.Labels); i += 2 {
			if c.Labels[i] == "party" {
				counted[c.Labels[i+1]] = true
			}
		}
	}
	for _, p := range parties {
		if !counted[p] {
			t.Errorf("no traffic counters for party %q", p)
		}
	}
	return reg
}

// sessionsEnded reports whether every party's session root span has
// ended.
func sessionsEnded(reg *telemetry.Registry, parties []string) bool {
	ended := map[string]bool{}
	for _, sp := range reg.Spans() {
		if sp.Name == "session" {
			ended[sp.Party] = true
		}
	}
	for _, p := range parties {
		if !ended[p] {
			return false
		}
	}
	return true
}

// TestTrafficCountersAccumulate checks that the traffic metrics add up
// across sessions instead of showing whichever session ended last: two
// identical queries double the mediator's bytes sent to the client.
func TestTrafficCountersAccumulate(t *testing.T) {
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	sent := reg.Counter("transport_bytes_sent", "party", leakage.PartyMediator, "peer", "client")
	if _, err := n.Query(fixtureSQL, ProtocolPlaintext, fastParams()); err != nil {
		t.Fatal(err)
	}
	first := sent.Value()
	if first <= 0 {
		t.Fatalf("transport_bytes_sent{mediator,client} = %d after one query, want > 0", first)
	}
	if _, err := n.Query(fixtureSQL, ProtocolPlaintext, fastParams()); err != nil {
		t.Fatal(err)
	}
	if got := sent.Value(); got != 2*first {
		t.Fatalf("transport_bytes_sent{mediator,client} = %d after two identical queries, want %d", got, 2*first)
	}
}

// An aborted session counts its traffic too. A source that never
// answers makes the mediator abort and report the error to the client;
// the request, the partial query and the error frame all show in the
// transport counters of the parties that sent them.
func TestAbortedSessionCountsTraffic(t *testing.T) {
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	n.Mediator.Routes["R1"] = func() (transport.Conn, error) {
		a, _ := transport.Pair() // nobody ever serves the far end
		// The query carries no deadline, so only the mediator's wait on
		// this link times out and the client hears why.
		a.SetTimeout(100 * time.Millisecond)
		return a, nil
	}
	if _, err := n.Query(fixtureSQL, ProtocolPlaintext, fastParams()); err == nil {
		t.Fatal("query succeeded against a silent source")
	}
	for _, c := range []struct{ name, party, peer string }{
		{"transport_bytes_sent", leakage.PartyClient, "mediator"},
		{"transport_bytes_recv", leakage.PartyClient, "mediator"},
		{"transport_bytes_recv", leakage.PartyMediator, "client"},
		{"transport_bytes_sent", leakage.PartyMediator, "client"},
		{"transport_bytes_sent", leakage.PartyMediator, "source:R1"},
	} {
		if got := reg.Counter(c.name, "party", c.party, "peer", c.peer).Value(); got <= 0 {
			t.Errorf("%s{party=%s,peer=%s} = %d after an aborted query, want > 0", c.name, c.party, c.peer, got)
		}
	}
}

// A source counts its traffic on every exit. A denied request never
// reaches the delivery phase, yet its partial query and its ack show in
// the source's transport counters.
func TestDeniedSourceCountsTraffic(t *testing.T) {
	n := newTestNetwork(t, nil)
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	// S1's clock runs a century ahead: every credential has expired.
	n.Sources[0].Now = func() time.Time { return time.Now().AddDate(100, 0, 0) }
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err == nil || !strings.Contains(err.Error(), "access to R1 denied") {
		t.Fatalf("query against an expired-clock source: err = %v, want the denial", err)
	}
	names := []string{"transport_bytes_sent", "transport_bytes_recv", "transport_msgs_sent", "transport_msgs_recv"}
	counter := func(name string) int64 {
		return reg.Counter(name, "party", "source:S1", "peer", leakage.PartyMediator).Value()
	}
	// The source ends its session after the client has its answer.
	counted := func() bool {
		for _, name := range names {
			if counter(name) <= 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !counted() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, name := range names {
		if got := counter(name); got <= 0 {
			t.Errorf("%s{party=source:S1,peer=mediator} = %d after a denied query, want > 0", name, got)
		}
	}
}

// A query with no registry anywhere must behave exactly as before the
// telemetry subsystem existed.
func TestQueryWithoutTelemetry(t *testing.T) {
	n := newTestNetwork(t, nil)
	n.SetTelemetry(nil)
	res, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != expectedJoin(t).Len() {
		t.Errorf("result rows = %d", res.Len())
	}
}

// A registry is one party's own: the client's records the client's spans,
// and no registry crosses a link to the mediator or the sources.
func TestClientTelemetryStaysLocal(t *testing.T) {
	n := newTestNetwork(t, nil)
	n.SetTelemetry(nil)
	reg := telemetry.NewRegistry()
	n.Client.Telemetry = reg
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err != nil {
		t.Fatal(err)
	}
	if _, cnt := reg.PhaseTotal(leakage.PartyClient, telemetry.PhasePostFilter); cnt == 0 {
		t.Error("client did not record into its registry")
	}
	if _, cnt := reg.PhaseTotal(leakage.PartyMediator, telemetry.PhaseMatch); cnt != 0 {
		t.Error("mediator spans appeared in the client's registry")
	}
}
