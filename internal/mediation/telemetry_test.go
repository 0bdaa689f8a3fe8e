package mediation

import (
	"testing"

	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/telemetry"
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
// per-party session roots, and traffic gauges at every party.
func TestQueryShapeSpanTrees(t *testing.T) {
	r1, _ := testRelations(t)
	t.Run("union", func(t *testing.T) {
		checkSpanTree(t, networkOver(t, nil, r1, r1.Rename("R2")), "SELECT * FROM R1 UNION SELECT * FROM R2", ProtocolCommutative,
			wantPhases[ProtocolMobileCode], "source:S1", "source:S2")
	})
	t.Run("aggregate", func(t *testing.T) {
		checkSpanTree(t, aggNetwork(t, nil), "SELECT SUM(units) FROM Claims", ProtocolPM, [][2]string{
			{leakage.PartyMediator, telemetry.PhaseQuerying},
			{"source:Insurer", telemetry.PhaseSourceEncrypt},
			{leakage.PartyMediator, telemetry.PhaseMatch},
			{leakage.PartyClient, telemetry.PhasePostFilter},
		}, "source:Insurer")
	})
}

// checkSpanTree runs one query over n with a fresh registry at every
// party and checks that it produced each wanted (party, phase) span, that
// every phase span nests under its party's session root, and that the
// client, the mediator and each listed source exported traffic gauges.
func checkSpanTree(t *testing.T, n *Network, sql string, proto Protocol, want [][2]string, sources ...string) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	defer n.SetTelemetry(nil)
	if _, err := n.Query(sql, proto, fastParams()); err != nil {
		t.Fatal(err)
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
	parties := map[string]bool{}
	for _, g := range reg.Snapshot().Gauges {
		for i := 0; i+1 < len(g.Labels); i += 2 {
			if g.Labels[i] == "party" {
				parties[g.Labels[i+1]] = true
			}
		}
	}
	for _, p := range append([]string{"client", "mediator"}, sources...) {
		if !parties[p] {
			t.Errorf("no traffic gauges for party %q", p)
		}
	}
	return reg
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

// Params.Telemetry is a per-query override at the client; it must not
// survive the gob hop to mediator or sources (their own fields govern).
func TestParamsTelemetryOverride(t *testing.T) {
	n := newTestNetwork(t, nil)
	n.SetTelemetry(nil)
	reg := telemetry.NewRegistry()
	params := fastParams()
	params.Telemetry = reg
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, params); err != nil {
		t.Fatal(err)
	}
	if _, cnt := reg.PhaseTotal(leakage.PartyClient, telemetry.PhasePostFilter); cnt == 0 {
		t.Error("client did not record into the per-query registry")
	}
	// The registry is gob-inert, so the mediator (reached only over the
	// transport link) cannot have recorded into it.
	if _, cnt := reg.PhaseTotal(leakage.PartyMediator, telemetry.PhaseMatch); cnt != 0 {
		t.Error("mediator spans appeared in the client-side registry despite the gob boundary")
	}
}
