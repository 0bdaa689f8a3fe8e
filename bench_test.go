// Benchmarks reproducing every table and figure of the paper's evaluation
// plus the Section 6 cost discussion; see DESIGN.md ("Experiment index")
// for the mapping experiment-id → benchmark. cmd/medbench prints the
// corresponding tables; these benches expose the same measurements to
// `go test -bench`.
package secmediation

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"math/big"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/workload"
)

// benchWorld caches the expensive fixtures (client RSA key, CA) across
// benchmarks.
var benchWorld struct {
	ca     *credential.Authority
	client *mediation.Client
}

func benchClient(b *testing.B) (*credential.Authority, *mediation.Client) {
	b.Helper()
	if benchWorld.client == nil {
		ca, err := credential.NewAuthority("BenchCA")
		if err != nil {
			b.Fatal(err)
		}
		client, err := mediation.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		cred, err := ca.Issue(&client.PrivateKey.PublicKey,
			[]credential.Property{{Name: "role", Value: "analyst"}}, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		client.Credentials = credential.Set{cred}
		benchWorld.ca = ca
		benchWorld.client = client
	}
	return benchWorld.ca, benchWorld.client
}

// benchNetwork assembles a two-source network over a synthetic workload.
func benchNetwork(b *testing.B, spec workload.JoinSpec, ledger *leakage.Ledger) *mediation.Network {
	b.Helper()
	ca, client := benchClient(b)
	r1, r2, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	s1 := &mediation.Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies:   map[string]*credential.Policy{"R1": policy("R1")},
		TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}, Ledger: ledger}
	s2 := &mediation.Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies:   map[string]*credential.Policy{"R2": policy("R2")},
		TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}, Ledger: ledger}
	client.Ledger = ledger
	n, err := mediation.NewNetwork(client, &mediation.Mediator{Ledger: ledger}, s1, s2)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

const benchSQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id"

func benchSpec() workload.JoinSpec {
	return workload.JoinSpec{Rows1: 128, Rows2: 128, Domain1: 32, Domain2: 32, Overlap: 0.5, Seed: 7}
}

func benchParams() mediation.Params {
	return mediation.Params{Partitions: 8}
}

func runProtocol(b *testing.B, proto mediation.Protocol, params mediation.Params) {
	b.Helper()
	n := benchNetwork(b, benchSpec(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Query(benchSQL, proto, params); err != nil {
			b.Fatal(err)
		}
	}
}

// fig1: the basic mediated system of Figure 1 (plaintext baseline).
func BenchmarkFig1BasicMediation(b *testing.B) {
	runProtocol(b, mediation.ProtocolPlaintext, benchParams())
}

// fig2: the credential-based data flow of Figure 2 — credential issuance,
// verification and policy checking.
func BenchmarkFig2CredentialFlow(b *testing.B) {
	ca, client := benchClient(b)
	pol := &credential.Policy{Relation: "R",
		Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	b.Run("issue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ca.Issue(&client.PrivateKey.PublicKey,
				[]credential.Property{{Name: "role", Value: "analyst"}}, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify-and-decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := pol.Check(client.Credentials, []*rsa.PublicKey{ca.PublicKey()}, time.Now())
			if !d.Granted {
				b.Fatal("denied")
			}
		}
	})
}

// mobile-code baseline of Section 1 (prior MMM solution).
func BenchmarkBaselineMobileCode(b *testing.B) {
	runProtocol(b, mediation.ProtocolMobileCode, benchParams())
}

// listing2: end-to-end DAS delivery phase, client setting.
func BenchmarkListing2DAS(b *testing.B) {
	runProtocol(b, mediation.ProtocolDAS, benchParams())
}

// listing3: end-to-end commutative-encryption delivery phase.
func BenchmarkListing3Commutative(b *testing.B) {
	runProtocol(b, mediation.ProtocolCommutative, benchParams())
}

// listing4: end-to-end private-matching delivery phase.
func BenchmarkListing4PM(b *testing.B) {
	runProtocol(b, mediation.ProtocolPM, benchParams())
}

// sec6-cost: end-to-end protocol comparison across active-domain sizes —
// the shape behind the paper's conclusion that the commutative protocol is
// the most efficient of the three and PM's polynomial evaluation is
// "quite expensive".
func BenchmarkSec6DomainScaling(b *testing.B) {
	for _, domain := range []int{8, 16, 32, 64} {
		spec := workload.JoinSpec{Rows1: 2 * domain, Rows2: 2 * domain,
			Domain1: domain, Domain2: domain, Overlap: 0.5, Seed: 11}
		for _, proto := range []mediation.Protocol{mediation.ProtocolDAS, mediation.ProtocolCommutative, mediation.ProtocolPM} {
			b.Run(fmt.Sprintf("%s/domain=%d", proto, domain), func(b *testing.B) {
				n := benchNetwork(b, spec, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := n.Query(benchSQL, proto, benchParams()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// das-partitioning: the paper's granularity trade-off — finer partitioning
// shrinks the superset (less client post-processing) at the price of finer
// inference exposure. The bench reports the superset size as a metric.
func BenchmarkDASPartitionSweep(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			params := benchParams()
			params.Partitions = k
			ledger := leakage.NewLedger()
			n := benchNetwork(b, benchSpec(), ledger)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Query(benchSQL, mediation.ProtocolDAS, params); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if superset, ok := ledger.Observed(leakage.PartyClient, "superset-size"); ok {
				b.ReportMetric(float64(superset), "superset-tuples")
			}
		})
	}
}

// FNP bucketing ablation: PM evaluation cost with and without buckets.
func BenchmarkPMBucketing(b *testing.B) {
	for _, buckets := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			params := benchParams()
			params.Buckets = buckets
			runProtocol(b, mediation.ProtocolPM, params)
		})
	}
}

// ext-multiattr: multi-attribute join extension (Section 8).
func BenchmarkExtMultiAttr(b *testing.B) {
	ca, client := benchClient(b)
	s1 := relation.MustSchema("E1",
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "dept", Kind: relation.KindString})
	s2 := relation.MustSchema("E2",
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "dept", Kind: relation.KindString})
	e1, e2 := relation.New(s1), relation.New(s2)
	for i := 0; i < 64; i++ {
		e1.MustAppend(relation.Tuple{relation.Int(int64(i % 16)), relation.String_(fmt.Sprintf("d%d", i%4))})
		e2.MustAppend(relation.Tuple{relation.Int(int64(i % 16)), relation.String_(fmt.Sprintf("d%d", i%3))})
	}
	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	src1 := &mediation.Source{Name: "S1", Catalog: algebra.MapCatalog{"E1": e1},
		Policies: map[string]*credential.Policy{"E1": policy("E1")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}}
	src2 := &mediation.Source{Name: "S2", Catalog: algebra.MapCatalog{"E2": e2},
		Policies: map[string]*credential.Policy{"E2": policy("E2")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}}
	n, err := mediation.NewNetwork(client, &mediation.Mediator{}, src1, src2)
	if err != nil {
		b.Fatal(err)
	}
	sql := "SELECT * FROM E1 JOIN E2 ON E1.id = E2.id AND E1.dept = E2.dept"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Query(sql, mediation.ProtocolCommutative, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// ext-hierarchy: successive joins through a materialized view.
func BenchmarkExtHierarchy(b *testing.B) {
	ca, client := benchClient(b)
	n := benchNetwork(b, benchSpec(), nil)
	first, err := n.Query("SELECT * FROM R1 NATURAL JOIN R2", mediation.ProtocolCommutative, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	view, err := mediation.MaterializeView(first, "V")
	if err != nil {
		b.Fatal(err)
	}
	r3 := relation.New(relation.MustSchema("R3", relation.Column{Name: "id", Kind: relation.KindInt}, relation.Column{Name: "tag", Kind: relation.KindString}))
	for i := 0; i < 32; i++ {
		r3.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.String_("t")})
	}
	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	delegate := &mediation.Source{Name: "Delegate", Catalog: algebra.MapCatalog{"V": view},
		Policies: map[string]*credential.Policy{"V": policy("V")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}}
	s3 := &mediation.Source{Name: "S3", Catalog: algebra.MapCatalog{"R3": r3},
		Policies: map[string]*credential.Policy{"R3": policy("R3")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}}
	n2, err := mediation.NewNetwork(client, &mediation.Mediator{}, delegate, s3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n2.Query("SELECT * FROM V NATURAL JOIN R3", mediation.ProtocolCommutative, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// PM polynomial primitives: building, encrypting and obliviously
// evaluating the active-domain polynomial, isolating the Θ(n·m) cost the
// paper calls "quite expensive".
func BenchmarkPMPolynomial(b *testing.B) {
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	sk := ecelgamal.KeyFromECDH(k)
	pk, err := ecelgamal.ParsePublicKey(sk.PublicKey())
	if err != nil {
		b.Fatal(err)
	}
	for _, degree := range []int{8, 32, 128} {
		roots := make([]*big.Int, degree)
		for i := range roots {
			roots[i] = pm.RootOfValue(relation.Int(int64(i)))
		}
		buckets, err := pm.BuildBuckets(roots, 1, ecelgamal.Order())
		if err != nil {
			b.Fatal(err)
		}
		enc, err := buckets.EncryptEC(pk)
		if err != nil {
			b.Fatal(err)
		}
		x := []*big.Int{pm.RootOfValue(relation.Int(3))}
		b.Run(fmt.Sprintf("eval/degree=%d", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enc.MaskedEvalBatch(pk, x, [][]byte{nil}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ext-pushdown: the DAS selection-pushdown extension — same query with and
// without mediator-side index filters.
func BenchmarkExtSelectionPushdown(b *testing.B) {
	sql := "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id WHERE R1.id < 8"
	for _, push := range []bool{false, true} {
		b.Run(fmt.Sprintf("pushdown=%v", push), func(b *testing.B) {
			params := benchParams()
			params.Partitions = 32
			params.Pushdown = push
			ledger := leakage.NewLedger()
			n := benchNetwork(b, benchSpec(), ledger)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Query(sql, mediation.ProtocolDAS, params); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if superset, ok := ledger.Observed(leakage.PartyClient, "superset-size"); ok {
				b.ReportMetric(float64(superset), "superset-tuples")
			}
		})
	}
}

// ext-aggregation: a one-source SUM whose source seals the one result row.
func BenchmarkExtAggregation(b *testing.B) {
	n := benchNetwork(b, benchSpec(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Query("SELECT SUM(id) FROM R1", mediation.ProtocolPM, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}
