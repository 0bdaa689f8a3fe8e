package commutative

import "github.com/secmediation/secmediation/internal/telemetry"

// opExp counts applications of the keyed permutation — one scalar
// multiplication (CurveKey.Apply) or one modular exponentiation (Key) —
// the unit the paper's cost model charges the commutative protocol in.
var opExp = telemetry.CryptoOp("commutative.exp")

// opHash counts ideal-hash evaluations h(a), one per value hashed into the
// group however many tries it took. The name predates this package owning
// the hash; `go run ./bench` reads it.
var opHash = telemetry.CryptoOp("oracle.hash")

// opQRTest counts quadratic-residue membership tests of the QR(p) instance
// (Jacobi symbol).
var opQRTest = telemetry.CryptoOp("commutative.qrtest")
