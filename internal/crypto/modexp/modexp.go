// Package modexp is the modular-exponentiation engine under the
// commutative cipher's hot path: fixed-exponent, varying-base powers
// x^e mod p, the operation the paper's cost model charges the
// commutative protocol in (one per active-domain value per layer).
//
// An engine is one of two things, fixed by its constructor:
//
//   - NewEngine: variable-time. Exp is exactly one math/big.Exp call,
//     whose inner multiplication kernel is hand-written assembly on the
//     common architectures and ~2× faster per modular multiplication
//     than anything expressible in portable Go.
//   - NewEngineConstantTime: the fixed-window Montgomery ladder of ct.go
//     over the pure-Go CIOS kernel of mont.go, for deployments that
//     reject the variable-time caveat (docs/SECURITY.md).
//
// The tests cross-check the ladder bit-for-bit against math/big.Exp.
package modexp

import (
	"fmt"
	"math/big"
)

// Engine computes x ↦ x^e mod n for one fixed exponent. It holds the
// secret exponent, so engines are key material and live inside the key
// that owns them. Immutable after construction, which is what lets one
// engine serve a whole worker pool.
// seclint:private holds a secret exponent
type Engine struct {
	mod *Modulus
	e   *big.Int // seclint:secret the fixed exponent
	// ctBits is the public exponent-length bound of a constant-time
	// engine (NewEngineConstantTime); 0 on variable-time engines.
	ctBits int
}

// NewEngine builds a variable-time engine for exponent e ≥ 1 on the
// given modulus.
func NewEngine(mod *Modulus, e *big.Int) (*Engine, error) {
	if mod == nil {
		return nil, fmt.Errorf("modexp: nil modulus")
	}
	if e == nil || e.Sign() <= 0 {
		return nil, fmt.Errorf("modexp: exponent must be positive")
	}
	return &Engine{mod: mod, e: new(big.Int).Set(e)}, nil
}

// Exp computes x^e mod n: through the constant-time ladder on a
// constant-time engine, through math/big.Exp otherwise. x is reduced
// into [0, n) first; the input is never modified. Safe for concurrent
// use.
func (en *Engine) Exp(x *big.Int) *big.Int {
	if en.ctBits > 0 {
		return en.ExpConstantTime(x)
	}
	return new(big.Int).Exp(x, en.e, en.mod.n)
}

// Bits returns the exponent bit length.
func (en *Engine) Bits() int { return en.e.BitLen() }
