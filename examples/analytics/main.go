// Command analytics demonstrates the two protocol extensions beyond the
// paper's core join protocols:
//
//  1. Aggregation — SUM/COUNT/AVG (after the aggregation-over-encrypted-
//     data work the paper's Section 7 surveys) run as a one-source
//     mobile-code session: the source computes the one result row and
//     seals it to the client's query key, so the mediator relays one
//     constant-length ciphertext and learns not even the row count.
//  2. DAS selection pushdown — conjunctive WHERE conditions become
//     mediator-side index filters, shrinking the superset the client must
//     decrypt (quantified against the non-pushdown run).
package main

import (
	"fmt"
	"log"
	"time"

	secmediation "github.com/secmediation/secmediation"
)

func main() {
	ca, err := secmediation.NewAuthority("AnalyticsCA")
	if err != nil {
		log.Fatal(err)
	}
	client, err := secmediation.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	cred, err := ca.Issue(secmediation.PublicKeyOf(client),
		[]secmediation.Property{{Name: "role", Value: "analyst"}}, time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	client.Credentials = secmediation.Credentials{cred}

	sales := secmediation.MustSchema("Sales",
		secmediation.Column{Name: "region", Kind: secmediation.KindInt},
		secmediation.Column{Name: "revenue", Kind: secmediation.KindFloat})
	regions := secmediation.MustSchema("Regions",
		secmediation.Column{Name: "region", Kind: secmediation.KindInt},
		secmediation.Column{Name: "country", Kind: secmediation.KindString})

	salesRel := secmediation.NewRelation(sales)
	for i := 0; i < 60; i++ {
		salesRel.MustAppend(secmediation.Tuple{
			secmediation.Int(int64(i % 12)),
			secmediation.Float(float64(100+i) + 0.25),
		})
	}
	regionsRel := secmediation.NewRelation(regions)
	for r := 0; r < 12; r++ {
		country := "de"
		if r%3 == 0 {
			country = "fr"
		}
		regionsRel.MustAppend(secmediation.Tuple{secmediation.Int(int64(r)), secmediation.Str(country)})
	}

	erp := secmediation.NewSource("ERP", map[string]*secmediation.Relation{"Sales": salesRel},
		[]*secmediation.Policy{secmediation.RequireProperty("Sales", "role", "analyst")}, ca)
	geo := secmediation.NewSource("GeoDB", map[string]*secmediation.Relation{"Regions": regionsRel},
		[]*secmediation.Policy{secmediation.RequireProperty("Regions", "role", "analyst")}, ca)

	ledger := secmediation.NewLedger()
	erp.Ledger, geo.Ledger, client.Ledger = ledger, ledger, ledger
	net, err := secmediation.NewNetwork(client, &secmediation.Mediator{Ledger: ledger}, erp, geo)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Aggregation: the source seals the one result row; the protocol
	// argument does not apply to an aggregate.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Sales",
		"SELECT SUM(revenue) FROM Sales",
		"SELECT AVG(revenue) FROM Sales WHERE region < 6",
	} {
		res, err := net.Query(sql, secmediation.PM, secmediation.Params{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-55s -> %s\n", sql, res.Tuple(0)[0])
	}
	fmt.Printf("ERP sealed %d result rows, one per query; the mediator relayed them and opened nothing\n\n",
		ledger.PrimitiveCount("source:ERP", "hybrid-encryption"))

	// 2. DAS selection pushdown: compare superset sizes.
	const joinSQL = "SELECT * FROM Sales JOIN Regions ON Sales.region = Regions.region WHERE country = 'fr'"
	run := func(push bool) int64 {
		l := secmediation.NewLedger()
		erp.Ledger, geo.Ledger, client.Ledger, net.Mediator.Ledger = l, l, l, l
		params := secmediation.Params{Partitions: 12, Pushdown: push}
		res, err := net.Query(joinSQL, secmediation.DAS, params)
		if err != nil {
			log.Fatal(err)
		}
		superset, _ := l.Observed("client", "superset-size")
		fmt.Printf("pushdown=%-5v  result=%3d tuples  superset the client had to decrypt=%4d pairs\n",
			push, res.Len(), superset)
		return superset
	}
	without := run(false)
	with := run(true)
	fmt.Printf("selection pushdown cut the client's decryption work by %.0f%%\n",
		100*(1-float64(with)/float64(without)))
}
