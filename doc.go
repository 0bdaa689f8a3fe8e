// Package secmediation is a from-scratch implementation of the secure
// mediated information system of Biskup, Tsatedem and Wiese, "Secure
// Mediation of Join Queries by Processing Ciphertexts" (ICDE Workshops
// 2007): a credential-based client/mediator/datasource architecture in
// which an untrusted mediator computes equi-JOIN queries over encrypted
// partial results without ever seeing plaintext data.
//
// # Architecture
//
// A Client issues a global SQL query together with a set of credentials
// (properties bound to its RSA public key by a certification
// Authority). The Mediator decomposes the query into partial queries,
// selects credential subsets, localizes the owning Sources, and then runs
// one of three delivery-phase protocols over ciphertexts:
//
//   - DAS (Hacıgümüş et al.): bucketized index values accompany row-wise
//     hybrid-encrypted tuples; the client translates the query into a
//     coarse server query the mediator evaluates, and post-filters the
//     decrypted superset.
//   - Commutative (Agrawal et al.): both sources encrypt hashed join
//     values under commuting keys; the mediator matches doubly-encrypted
//     values and returns exactly the matching encrypted tuple sets.
//   - PM (Freedman et al.): sources exchange homomorphically encrypted
//     polynomials whose roots are their join values and return masked
//     evaluations; the client can open only the matching ones.
//
// Two baselines complete the picture: a plaintext trusted mediator and
// the prior "mobile code" MMM solution (client-side join after
// decryption).
//
// # Quick start
//
//	client, _ := secmediation.NewClient()
//	ca, _ := secmediation.NewAuthority("DemoCA")
//	cred, _ := ca.Issue(client.PublicKey(), []secmediation.Property{{Name: "role", Value: "analyst"}}, time.Hour)
//	client.Credentials = secmediation.Credentials{cred}
//
//	src1 := secmediation.NewSource("S1", r1, secmediation.RequireProperty("R1", "role", "analyst"), ca)
//	src2 := secmediation.NewSource("S2", r2, secmediation.RequireProperty("R2", "role", "analyst"), ca)
//	net, _ := secmediation.NewNetwork(client, &secmediation.Mediator{}, src1, src2)
//	result, _ := net.Query("SELECT * FROM R1 JOIN R2 ON R1.id = R2.id",
//	    secmediation.Commutative, secmediation.Params{})
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// complete system inventory and experiment index.
package secmediation
