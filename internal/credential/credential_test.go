package credential

import (
	"crypto/rand"
	"crypto/rsa"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	rel "github.com/secmediation/secmediation/internal/relation"
)

func newClientKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	k, err := rsa.GenerateKey(rand.Reader, 1024) // small key: test-only
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestIssueAndVerify(t *testing.T) {
	ca, err := NewAuthority("TestCA")
	if err != nil {
		t.Fatal(err)
	}
	ck := newClientKey(t)
	cred, err := ca.Issue(&ck.PublicKey, []Property{{"role", "physician"}, {"org", "hospital-a"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := cred.Verify(ca.PublicKey(), time.Now()); err != nil {
		t.Errorf("fresh credential does not verify: %v", err)
	}
	if !cred.HasProperty("role", "physician") || cred.HasProperty("role", "nurse") {
		t.Error("HasProperty wrong")
	}
	got, err := cred.ClientKey()
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(ck.PublicKey.N) != 0 {
		t.Error("embedded client key mismatch")
	}
	if ca.Name() != "TestCA" {
		t.Error("authority name")
	}
}

func TestVerifyRejectsTamperingAndExpiry(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	other, _ := NewAuthority("OtherCA")
	ck := newClientKey(t)
	cred, err := ca.Issue(&ck.PublicKey, []Property{{"role", "physician"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Verified, and so memoised, first: each check below must still fail.
	if err := cred.Verify(ca.PublicKey(), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Wrong CA key.
	if err := cred.Verify(other.PublicKey(), time.Now()); err == nil {
		t.Error("credential verified against wrong CA")
	}
	// Expired.
	if err := cred.Verify(ca.PublicKey(), time.Now().Add(2*time.Hour)); err == nil {
		t.Error("expired credential verified")
	}
	// Property tampering.
	cred.Properties[0].Value = "admin"
	if err := cred.Verify(ca.PublicKey(), time.Now()); err == nil {
		t.Error("tampered credential verified")
	}
}

func TestPropertyOrderCanonical(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	a, _ := ca.Issue(&ck.PublicKey, []Property{{"b", "2"}, {"a", "1"}}, time.Hour)
	if a.Properties[0].Name != "a" {
		t.Errorf("properties not sorted: %v", a.Properties)
	}
}

func TestIdentityCertificate(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	ic, err := ca.IssueIdentity("alice@example.org", &ck.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Identity != "alice@example.org" || len(ic.Signature) == 0 {
		t.Error("identity certificate incomplete")
	}
}

func TestSetWithProperty(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	c1, _ := ca.Issue(&ck.PublicKey, []Property{{"role", "physician"}}, time.Hour)
	c2, _ := ca.Issue(&ck.PublicKey, []Property{{"org", "hospital-a"}}, time.Hour)
	s := Set{c1, c2}
	if got := s.WithProperty("role"); len(got) != 1 || got[0] != c1 {
		t.Errorf("WithProperty(role) = %v", got)
	}
	if got := s.WithProperty("nothing"); len(got) != 0 {
		t.Errorf("WithProperty(nothing) = %v", got)
	}
}

func TestPolicyCheck(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	physCred, _ := ca.Issue(&ck.PublicKey, []Property{{"role", "physician"}}, time.Hour)
	internCred, _ := ca.Issue(&ck.PublicKey, []Property{{"role", "intern"}}, time.Hour)
	trusted := []*rsa.PublicKey{ca.PublicKey()}

	pol := &Policy{
		Relation: "Patients",
		Require:  []Requirement{{Property{"role", "physician"}}},
	}
	d := pol.Check(Set{physCred}, trusted, time.Now())
	if !d.Granted || d.ClientKey == nil || d.Filter != nil {
		t.Errorf("physician denied: %+v", d)
	}
	d = pol.Check(Set{internCred}, trusted, time.Now())
	if d.Granted {
		t.Error("intern granted")
	}
	d = pol.Check(Set{}, trusted, time.Now())
	if d.Granted || d.Reason == "" {
		t.Error("empty credential set granted or lacks reason")
	}
	// Unverifiable credential (wrong CA) must be ignored.
	rogue, _ := NewAuthority("Rogue")
	rogueCred, _ := rogue.Issue(&ck.PublicKey, []Property{{"role", "physician"}}, time.Hour)
	d = pol.Check(Set{rogueCred}, trusted, time.Now())
	if d.Granted {
		t.Error("rogue credential granted access")
	}
}

func TestPolicyRowFilter(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	internCred, _ := ca.Issue(&ck.PublicKey, []Property{{"role", "intern"}}, time.Hour)
	trusted := []*rsa.PublicKey{ca.PublicKey()}

	schema := rel.MustSchema("Patients",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "sensitive", Kind: rel.KindBool})
	data := rel.MustFromTuples(schema,
		rel.Tuple{rel.Int(1), rel.Bool(false)},
		rel.Tuple{rel.Int(2), rel.Bool(true)},
		rel.Tuple{rel.Int(3), rel.Bool(false)},
	)
	pol := &Policy{
		Relation: "Patients",
		Require:  []Requirement{{Property{"role", "intern"}}},
		Filters: []RowFilter{{
			IfProperty: Property{"role", "intern"},
			Predicate:  algebra.Compare{Op: algebra.OpEq, Left: algebra.ColumnRef{Name: "sensitive"}, Right: algebra.Literal{Value: rel.Bool(false)}},
		}},
	}
	d := pol.Check(Set{internCred}, trusted, time.Now())
	if !d.Granted || d.Filter == nil {
		t.Fatalf("intern not granted filtered access: %+v", d)
	}
	filtered, err := d.ApplyFilter(data)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Len() != 2 {
		t.Errorf("filtered rows = %d, want 2", filtered.Len())
	}
	// Full access leaves data untouched.
	full := Decision{Granted: true}
	out, err := full.ApplyFilter(data)
	if err != nil || out.Len() != 3 {
		t.Errorf("no-filter ApplyFilter: %d rows, %v", out.Len(), err)
	}
}

func TestPolicyNoRequirements(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ck := newClientKey(t)
	cred, _ := ca.Issue(&ck.PublicKey, []Property{{"member", "yes"}}, time.Hour)
	pol := &Policy{Relation: "Public"}
	d := pol.Check(Set{cred}, []*rsa.PublicKey{ca.PublicKey()}, time.Now())
	if !d.Granted || d.ClientKey == nil {
		t.Errorf("open policy denied: %+v", d)
	}
}

// Credentials cross the mediator in the clear, so a client could add
// another client's credential to its own set. A policy that needs a
// property from each is not satisfied by two credentials that bind two
// client keys; the same two properties bound to one key are.
func TestPolicyRejectsCredentialsOfTwoKeys(t *testing.T) {
	ca, _ := NewAuthority("TestCA")
	ka, kb := newClientKey(t), newClientKey(t)
	analystA, _ := ca.Issue(&ka.PublicKey, []Property{{"role", "analyst"}}, time.Hour)
	secretA, _ := ca.Issue(&ka.PublicKey, []Property{{"clearance", "secret"}}, time.Hour)
	secretB, _ := ca.Issue(&kb.PublicKey, []Property{{"clearance", "secret"}}, time.Hour)
	trusted := []*rsa.PublicKey{ca.PublicKey()}
	pol := &Policy{Relation: "Cases", Require: []Requirement{
		{Property{"role", "analyst"}}, {Property{"clearance", "secret"}}}}

	d := pol.Check(Set{analystA, secretB}, trusted, time.Now())
	if d.Granted || d.Reason != "credentials bind more than one client key" {
		t.Errorf("credentials of two keys: %+v, want a denial", d)
	}
	d = pol.Check(Set{analystA, secretA}, trusted, time.Now())
	if !d.Granted || !d.ClientKey.Equal(&ka.PublicKey) {
		t.Errorf("credentials of one key: %+v, want a grant under that key", d)
	}
}
