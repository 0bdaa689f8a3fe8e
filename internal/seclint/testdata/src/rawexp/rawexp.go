// Package rawexp exercises the rawexp analyzer: unreduced big.Int
// arithmetic. The unit test loads this fixture with RelDir overridden
// to internal/crypto, the analyzer's scope.
package rawexp

import "math/big"

// Bad computes a full-width power and an unreduced product chain.
func Bad(x, y, n *big.Int) *big.Int {
	r := new(big.Int).Exp(x, y, nil)
	acc := new(big.Int).Mul(x, y)
	acc.Mul(acc, x)
	return r.Add(r, acc)
}

// Good reduces between multiplications and passes the modulus to Exp.
func Good(x, y, n *big.Int) *big.Int {
	r := new(big.Int).Exp(x, y, n)
	acc := new(big.Int).Mul(x, y)
	acc.Mod(acc, n)
	acc.Mul(acc, x)
	acc.Mod(acc, n)
	return r.Add(r, acc)
}

// Keygen multiplies two primes exactly once — legitimately unreduced.
func Keygen(p, q *big.Int) *big.Int {
	n := new(big.Int).Mul(p, q)
	nsq := new(big.Int).Mul(n, n)
	return nsq
}
