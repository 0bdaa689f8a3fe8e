package ecelgamal

import "github.com/secmediation/secmediation/internal/telemetry"

// The point operations PM's cost is made of, counted where they happen:
// a variable-base scalar multiplication k·P, a fixed-base one k·G, and a
// point addition. A ciphertext operation counts both of its points.
var (
	opMul     = telemetry.CryptoOp("ecelgamal.mul")
	opBaseMul = telemetry.CryptoOp("ecelgamal.base_mul")
	opAdd     = telemetry.CryptoOp("ecelgamal.add")
)
