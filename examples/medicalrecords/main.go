// Command medicalrecords demonstrates the inter-enterprise scenario the
// paper's introduction motivates: a hospital and an insurer hold
// confidential relations about the same patients; an analyst joins them on
// the patient id via an untrusted mediator without the mediator ever
// seeing plaintext records. It also shows credential-dependent row-level
// filtering: a resident's credential only unlocks non-psychiatric records,
// a chief physician sees everything — decided by the *sources*, not the
// mediator.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	secmediation "github.com/secmediation/secmediation"
)

func main() {
	ca, err := secmediation.NewAuthority("HealthTrustCA")
	if err != nil {
		log.Fatal(err)
	}

	// Hospital relation (with a sensitivity marker) and insurer relation.
	admissions := secmediation.MustSchema("Admissions",
		secmediation.Column{Name: "patient", Kind: secmediation.KindInt},
		secmediation.Column{Name: "ward", Kind: secmediation.KindString},
		secmediation.Column{Name: "psychiatric", Kind: secmediation.KindBool})
	policies := secmediation.MustSchema("Policies",
		secmediation.Column{Name: "patient", Kind: secmediation.KindInt},
		secmediation.Column{Name: "insurer_plan", Kind: secmediation.KindString})
	hosp, err := secmediation.FromTuples(admissions,
		secmediation.Tuple{secmediation.Int(100), secmediation.Str("cardio"), secmediation.Bool(false)},
		secmediation.Tuple{secmediation.Int(101), secmediation.Str("psych"), secmediation.Bool(true)},
		secmediation.Tuple{secmediation.Int(102), secmediation.Str("ortho"), secmediation.Bool(false)},
		secmediation.Tuple{secmediation.Int(103), secmediation.Str("psych"), secmediation.Bool(true)})
	if err != nil {
		log.Fatal(err)
	}
	ins, err := secmediation.FromTuples(policies,
		secmediation.Tuple{secmediation.Int(100), secmediation.Str("gold")},
		secmediation.Tuple{secmediation.Int(101), secmediation.Str("silver")},
		secmediation.Tuple{secmediation.Int(103), secmediation.Str("basic")},
		secmediation.Tuple{secmediation.Int(999), secmediation.Str("gold")})
	if err != nil {
		log.Fatal(err)
	}

	// Hospital policy: residents are filtered to non-psychiatric rows;
	// chief physicians see everything.
	hospPolicy := &secmediation.Policy{
		Relation: "Admissions",
		Require:  []secmediation.Requirement{{Property: secmediation.Property{Name: "profession", Value: "medical"}}},
		Filters: []secmediation.RowFilter{{
			IfProperty: secmediation.Property{Name: "rank", Value: "resident"},
			Predicate:  mustPredicate("SELECT * FROM Admissions WHERE psychiatric = FALSE"),
		}},
	}
	insPolicy := secmediation.RequireProperty("Policies", "profession", "medical")

	runAs := func(rank string) {
		client, err := secmediation.NewClient()
		if err != nil {
			log.Fatal(err)
		}
		cred, err := ca.Issue(secmediation.PublicKeyOf(client), []secmediation.Property{
			{Name: "profession", Value: "medical"},
			{Name: "rank", Value: rank},
		}, time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		client.Credentials = secmediation.Credentials{cred}

		hospital := secmediation.NewSource("Hospital",
			map[string]*secmediation.Relation{"Admissions": hosp},
			[]*secmediation.Policy{hospPolicy}, ca)
		insurer := secmediation.NewSource("Insurer",
			map[string]*secmediation.Relation{"Policies": ins},
			[]*secmediation.Policy{insPolicy}, ca)
		net, err := secmediation.NewNetwork(client, &secmediation.Mediator{}, hospital, insurer)
		if err != nil {
			log.Fatal(err)
		}
		ledger := secmediation.NewLedger()
		hospital.Ledger, insurer.Ledger, client.Ledger = ledger, ledger, ledger
		net.Mediator.Ledger = ledger

		res, err := net.Query(
			"SELECT ward, insurer_plan FROM Admissions NATURAL JOIN Policies",
			secmediation.Commutative, secmediation.Params{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== querying as rank=%s\n%s\n", rank, res.Sort())
		fmt.Printf("what the untrusted mediator could observe:\n")
		items := ledger.ObservedItems("mediator")
		keys := make([]string, 0, len(items))
		for k := range items {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s = %d\n", k, items[k])
		}
		fmt.Println()
	}
	runAs("chief-physician") // full access: 3 matching patients
	runAs("resident")        // psychiatric admissions filtered out at the source
}

// mustPredicate states a row filter in SQL.
func mustPredicate(sql string) secmediation.Expr {
	e, err := secmediation.ParseWhere(sql)
	if err != nil {
		log.Fatal(err)
	}
	return e
}
