package main

import (
	"crypto/rsa"
	"fmt"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/workload"
)

// harness owns the measurement world: CA, client, workload parameters.
type harness struct {
	ca       *credential.Authority
	client   *mediation.Client
	spec     workload.JoinSpec
	joinSize int
}

func newHarness(rows, domain int, overlap, skew float64) (*harness, error) {
	ca, err := credential.NewAuthority("BenchCA")
	if err != nil {
		return nil, err
	}
	client, err := mediation.NewClient()
	if err != nil {
		return nil, err
	}
	cred, err := ca.Issue(&client.PrivateKey.PublicKey,
		[]credential.Property{{Name: "role", Value: "analyst"}}, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	client.Credentials = credential.Set{cred}
	h := &harness{
		ca: ca, client: client,
		spec: workload.JoinSpec{Rows1: rows, Rows2: rows, Domain1: domain, Domain2: domain,
			Overlap: overlap, Skew: skew, Seed: 20070415},
	}
	r1, r2, err := h.spec.Generate()
	if err != nil {
		return nil, err
	}
	h.joinSize, err = workload.ExpectedJoinSize(r1, r2)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) params() mediation.Params {
	return mediation.Params{Partitions: 8, Strategy: das.EquiDepth}
}

// joinSQL is the workload's global query: the equi-join of the two
// generated relations.
const joinSQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id"

// run executes one instrumented query and returns its ledger and the wall
// time of the query itself. Every run is checked against the plaintext
// baseline evaluating the same query on the same network: a table row is
// only printed for a run that returned exactly the plaintext join.
func (h *harness) run(query string, proto mediation.Protocol, params mediation.Params) (*leakage.Ledger, time.Duration, error) {
	r1, r2, err := h.spec.Generate()
	if err != nil {
		return nil, 0, err
	}
	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	s1 := &mediation.Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies:   map[string]*credential.Policy{"R1": policy("R1")},
		TrustedCAs: []*rsa.PublicKey{h.ca.PublicKey()}}
	s2 := &mediation.Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies:   map[string]*credential.Policy{"R2": policy("R2")},
		TrustedCAs: []*rsa.PublicKey{h.ca.PublicKey()}}
	med := &mediation.Mediator{}
	n, err := mediation.NewNetwork(h.client, med, s1, s2)
	if err != nil {
		return nil, 0, err
	}
	// The reference runs before the ledger is attached (h.client is shared
	// across runs), so the ledger records the measured run only.
	h.client.Ledger = nil
	want, err := n.Query(query, mediation.ProtocolPlaintext, params)
	if err != nil {
		return nil, 0, fmt.Errorf("plaintext reference: %w", err)
	}
	ledger := leakage.NewLedger()
	h.client.Ledger, med.Ledger, s1.Ledger, s2.Ledger = ledger, ledger, ledger, ledger
	start := time.Now()
	got, err := n.Query(query, proto, params)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if !got.EqualMultiset(want) {
		return nil, 0, fmt.Errorf("%v returned %d tuples that are not the plaintext join (%d tuples) of %q",
			proto, got.Len(), want.Len(), query)
	}
	return ledger, wall, nil
}

var secureProtocols = []mediation.Protocol{
	mediation.ProtocolDAS, mediation.ProtocolCommutative, mediation.ProtocolPM,
}

// table1 reproduces Table 1: extra information disclosed to client and
// mediator, as recorded by the instrumented parties.
func (h *harness) table1() error {
	fmt.Println("Table 1 — extra information disclosed to client and mediator")
	rows := [][]string{{"protocol", "client learns", "mediator learns"}}
	for _, proto := range secureProtocols {
		ledger, _, err := h.run(joinSQL, proto, h.params())
		if err != nil {
			return err
		}
		rows = append(rows, []string{proto.String(),
			describe(ledger.ObservedItems(leakage.PartyClient)),
			describe(ledger.ObservedItems(leakage.PartyMediator))})
	}
	printAligned(rows)
	return nil
}

// describe renders the leakage items of one party, skipping the traffic
// and timing bookkeeping entries.
func describe(items map[string]int64) string {
	skip := map[string]bool{
		"bytes-sent": true, "bytes-received": true, "interactions-with-mediator": true,
		"bytes-to-client": true, "bytes-from-client": true, "bytes-to-sources": true,
		"bytes-from-sources": true, "msgs-with-client": true, "msgs-with-sources": true,
		"compute-ns": true, "false-positives-discarded": true,
	}
	var parts []string
	for _, k := range sortedKeys(items) {
		if skip[k] {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d", k, items[k]))
	}
	if len(parts) == 0 {
		return "(nothing beyond the protocol transcript)"
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// table2 reproduces Table 2: the cryptographic primitives each protocol
// applies, from the instrumented primitive counters.
func (h *harness) table2() error {
	fmt.Println("Table 2 — applied cryptographic primitives")
	rows := [][]string{{"protocol", "primitives (beyond credentials + hybrid encryption)"}}
	core := map[string]bool{"hybrid-encryption": true, "hybrid-decryption": true}
	for _, proto := range secureProtocols {
		ledger, _, err := h.run(joinSQL, proto, h.params())
		if err != nil {
			return err
		}
		var prims []string
		for _, p := range ledger.AllPrimitives() {
			if core[p] {
				continue
			}
			prims = append(prims, p)
		}
		line := ""
		for i, p := range prims {
			if i > 0 {
				line += ", "
			}
			line += p
		}
		rows = append(rows, []string{proto.String(), line})
	}
	printAligned(rows)
	return nil
}

// table3 is the Section 6 cost matrix: per-party compute time, traffic and
// interaction counts, plus what the client has to post-process.
func (h *harness) table3() error {
	fmt.Println("Section 6 — cost matrix (measured)")
	rows := [][]string{{"protocol", "wall", "client compute", "mediator compute",
		"sources compute", "client<->mediator msgs", "bytes to client", "client receives"}}
	protos := append([]mediation.Protocol{mediation.ProtocolPlaintext, mediation.ProtocolMobileCode}, secureProtocols...)
	for _, proto := range protos {
		ledger, wall, err := h.run(joinSQL, proto, h.params())
		if err != nil {
			return err
		}
		clientNs, _ := ledger.Observed(leakage.PartyClient, "compute-ns")
		medNs, _ := ledger.Observed(leakage.PartyMediator, "compute-ns")
		s1Ns, _ := ledger.Observed(leakage.PartySource("S1"), "compute-ns")
		s2Ns, _ := ledger.Observed(leakage.PartySource("S2"), "compute-ns")
		msgs, _ := ledger.Observed(leakage.PartyClient, "interactions-with-mediator")
		bytesToClient, _ := ledger.Observed(leakage.PartyClient, "bytes-received")
		receives := "exact result"
		if superset, ok := ledger.Observed(leakage.PartyClient, "superset-size"); ok {
			receives = fmt.Sprintf("superset (%d pairs for %d result tuples)", superset, h.joinSize)
		}
		if enc, ok := ledger.Observed(leakage.PartyClient, "encrypted-values-received"); ok {
			receives = fmt.Sprintf("n+m=%d encrypted values, opens matches only", enc)
		}
		if tuples, ok := ledger.Observed(leakage.PartyClient, "tuples-received"); ok {
			receives = fmt.Sprintf("both partial results (%d tuples)", tuples)
		}
		rows = append(rows, []string{
			proto.String(),
			wall.Round(time.Millisecond).String(),
			time.Duration(clientNs).Round(time.Microsecond).String(),
			time.Duration(medNs).Round(time.Microsecond).String(),
			time.Duration(s1Ns + s2Ns).Round(time.Microsecond).String(),
			fmt.Sprint(msgs),
			fmt.Sprint(bytesToClient),
			receives,
		})
	}
	printAligned(rows)
	return nil
}

// table4 is the DAS partitioning trade-off: superset size and client
// post-processing as the partition count varies.
func (h *harness) table4() error {
	fmt.Println("DAS partitioning trade-off (paper §6 bullet 1; refs [15],[8])")
	rows := [][]string{{"partitions", "superset |RC|", "false positives", "exact join", "client compute"}}
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		params := h.params()
		params.Partitions = k
		ledger, _, err := h.run(joinSQL, mediation.ProtocolDAS, params)
		if err != nil {
			return err
		}
		superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
		fp, _ := ledger.Observed(leakage.PartyClient, "false-positives-discarded")
		clientNs, _ := ledger.Observed(leakage.PartyClient, "compute-ns")
		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(superset), fmt.Sprint(fp), fmt.Sprint(h.joinSize),
			time.Duration(clientNs).Round(time.Microsecond).String(),
		})
	}
	printAligned(rows)
	return nil
}

// table5 measures the extension ablations: selection pushdown, the
// footnote-1/2 transport optimizations, and FNP bucketing.
func (h *harness) table5() error {
	fmt.Println("Extension ablations (measured)")
	rows := [][]string{{"variant", "wall", "bytes to client", "client receives / note"}}

	base := h.params()
	base.Partitions = 32
	push := base
	push.Pushdown = true
	comm := h.params()
	commID := comm
	commID.IDMode = true
	pm := h.params()
	pmBuckets := pm
	pmBuckets.Buckets = 8
	query := joinSQL + " WHERE R1.id < 3"
	for _, v := range []struct {
		name   string
		proto  mediation.Protocol
		params mediation.Params
	}{
		{"das (no pushdown)", mediation.ProtocolDAS, base},
		{"das + selection pushdown", mediation.ProtocolDAS, push},
		{"commutative (payloads circulate)", mediation.ProtocolCommutative, comm},
		{"commutative + footnote-1 ID mode", mediation.ProtocolCommutative, commID},
		{"pm (footnote-2 sealed payloads)", mediation.ProtocolPM, pm},
		{"pm + FNP buckets (b=8)", mediation.ProtocolPM, pmBuckets},
	} {
		ledger, wall, err := h.run(query, v.proto, v.params)
		if err != nil {
			return fmt.Errorf("variant %q: %w", v.name, err)
		}
		bytesToClient, _ := ledger.Observed(leakage.PartyClient, "bytes-received")
		note := "exact result"
		if superset, ok := ledger.Observed(leakage.PartyClient, "superset-size"); ok {
			note = fmt.Sprintf("superset of %d pairs", superset)
		}
		rows = append(rows, []string{v.name, wall.Round(time.Millisecond).String(),
			fmt.Sprint(bytesToClient), note})
	}
	printAligned(rows)
	return nil
}
