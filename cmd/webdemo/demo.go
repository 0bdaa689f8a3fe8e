package main

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/telemetry"

	"crypto/rsa"
)

// demo owns the in-process federation the web front end queries.
type demo struct {
	client *mediation.Client
	ca     *credential.Authority
	s1, s2 *mediation.Source
	// telemetry, when non-nil, accumulates spans and metrics across every
	// query the demo runs and is exported on /metrics and /trace.
	telemetry *telemetry.Registry
}

// newDemo builds the CA, the credentialed client, and two datasources with
// a small order/customer dataset.
func newDemo() (*demo, error) {
	ca, err := credential.NewAuthority("WebDemoCA")
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

	orders := relation.MustSchema("Orders",
		relation.Column{Name: "cust", Kind: relation.KindInt},
		relation.Column{Name: "item", Kind: relation.KindString},
		relation.Column{Name: "qty", Kind: relation.KindInt})
	customers := relation.MustSchema("Customers",
		relation.Column{Name: "cust", Kind: relation.KindInt},
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "city", Kind: relation.KindString})
	ordersRel := relation.MustFromTuples(orders,
		relation.Tuple{relation.Int(1), relation.String_("book"), relation.Int(2)},
		relation.Tuple{relation.Int(2), relation.String_("lamp"), relation.Int(1)},
		relation.Tuple{relation.Int(2), relation.String_("pen"), relation.Int(10)},
		relation.Tuple{relation.Int(4), relation.String_("desk"), relation.Int(1)},
		relation.Tuple{relation.Int(5), relation.String_("chair"), relation.Int(4)})
	customersRel := relation.MustFromTuples(customers,
		relation.Tuple{relation.Int(1), relation.String_("ada"), relation.String_("dortmund")},
		relation.Tuple{relation.Int(2), relation.String_("bob"), relation.String_("berlin")},
		relation.Tuple{relation.Int(3), relation.String_("cyd"), relation.String_("essen")},
		relation.Tuple{relation.Int(5), relation.String_("eve"), relation.String_("hagen")})

	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	d := &demo{
		client: client, ca: ca,
		s1: &mediation.Source{Name: "ShopDB", Catalog: algebra.MapCatalog{"Orders": ordersRel},
			Policies: map[string]*credential.Policy{"Orders": policy("Orders")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}},
		s2: &mediation.Source{Name: "CRM", Catalog: algebra.MapCatalog{"Customers": customersRel},
			Policies: map[string]*credential.Policy{"Customers": policy("Customers")}, TrustedCAs: []*rsa.PublicKey{ca.PublicKey()}},
	}
	return d, nil
}

// runQuery executes one query on a fresh instrumented network.
func (d *demo) runQuery(sql string, proto mediation.Protocol) (*relation.Relation, *leakage.Ledger, time.Duration, error) {
	ledger := leakage.NewLedger()
	d.client.Ledger = ledger
	d.s1.Ledger, d.s2.Ledger = ledger, ledger
	net, err := mediation.NewNetwork(d.client, &mediation.Mediator{Ledger: ledger}, d.s1, d.s2)
	if err != nil {
		return nil, nil, 0, err
	}
	net.SetTelemetry(d.telemetry)
	params := mediation.Params{Partitions: 4, Strategy: das.EquiDepth,
		PaillierBits: 1024, Timeout: 30 * time.Second}
	start := time.Now()
	res, err := net.Query(sql, proto, params)
	return res, ledger, time.Since(start), err
}

var protocols = map[string]mediation.Protocol{
	"plaintext":   mediation.ProtocolPlaintext,
	"mobilecode":  mediation.ProtocolMobileCode,
	"das":         mediation.ProtocolDAS,
	"commutative": mediation.ProtocolCommutative,
	"pm":          mediation.ProtocolPM,
}

const defaultSQL = "SELECT name, city, item, qty FROM Orders JOIN Customers ON Orders.cust = Customers.cust"

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>Secure Mediation Web Demo</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 60em; }
 table { border-collapse: collapse; margin: 1em 0; }
 td, th { border: 1px solid #999; padding: 0.3em 0.8em; }
 textarea { width: 100%; }
 .err { color: #b00; }
</style></head><body>
<h1>Secure Mediation of Join Queries by Processing Ciphertexts</h1>
<p>Two datasources (ShopDB: Orders, CRM: Customers), an untrusted mediator,
and a credentialed client — pick a delivery protocol and run a JOIN over
ciphertexts.</p>
<form method="POST" action="/query">
<textarea name="sql" rows="2">{{.SQL}}</textarea><br>
<select name="protocol">
{{range .Protocols}}<option value="{{.}}" {{if eq . $.Selected}}selected{{end}}>{{.}}</option>{{end}}
</select>
<input type="submit" value="Run query">
</form>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
{{if .Rows}}
<h2>Global result ({{len .Rows}} tuples, {{.Elapsed}})</h2>
<table><tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</table>
<h2>What the untrusted mediator observed</h2>
<table><tr><th>item</th><th>value</th></tr>
{{range .Leaks}}<tr><td>{{.Item}}</td><td>{{.Value}}</td></tr>{{end}}</table>
{{end}}
</body></html>`))

type leakRow struct {
	Item  string
	Value int64
}

type pageData struct {
	SQL       string
	Protocols []string
	Selected  string
	Error     string
	Header    []string
	Rows      [][]string
	Elapsed   string
	Leaks     []leakRow
}

// handler builds the HTTP mux. When the demo carries a telemetry
// registry, the observability endpoints (/metrics, /trace, /snapshot)
// are mounted next to the query form.
func (d *demo) handler() http.Handler {
	mux := http.NewServeMux()
	if d.telemetry.Enabled() {
		tel := telemetry.Handler(d.telemetry)
		mux.Handle("/metrics", tel)
		mux.Handle("/trace", tel)
		mux.Handle("/snapshot", tel)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		d.render(w, pageData{SQL: defaultSQL, Selected: "commutative"})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Redirect(w, r, "/", http.StatusSeeOther)
			return
		}
		sql := r.FormValue("sql")
		protoName := r.FormValue("protocol")
		data := pageData{SQL: sql, Selected: protoName}
		proto, ok := protocols[protoName]
		if !ok {
			data.Error = fmt.Sprintf("unknown protocol %q", protoName)
			d.render(w, data)
			return
		}
		res, ledger, elapsed, err := d.runQuery(sql, proto)
		if err != nil {
			data.Error = err.Error()
			d.render(w, data)
			return
		}
		data.Elapsed = elapsed.Round(time.Millisecond).String()
		for _, c := range res.Schema().Columns {
			data.Header = append(data.Header, c.Name)
		}
		for _, t := range res.Sort().Tuples() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = v.String()
			}
			data.Rows = append(data.Rows, row)
		}
		items := ledger.ObservedItems(leakage.PartyMediator)
		keys := make([]string, 0, len(items))
		for k := range items {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			data.Leaks = append(data.Leaks, leakRow{Item: k, Value: items[k]})
		}
		d.render(w, data)
	})
	return mux
}

func (d *demo) render(w http.ResponseWriter, data pageData) {
	data.Protocols = []string{"plaintext", "mobilecode", "das", "commutative", "pm"}
	if data.Selected == "" {
		data.Selected = "commutative"
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTemplate.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
