// Package cttaint exercises the cttaint analyzer: every sink kind
// (branch, loop bound, slice subscript, allocation size, variable-time
// math/big call), every seclint:secret annotation form (struct field,
// var, function results, named parameters) plus the structural
// private-type rule, interprocedural propagation through summaries and
// closures, and the precision cuts (nil compares, errors, len, public
// sibling fields, pointer identity) that must stay clean.
package cttaint

import "math/big"

// Key models a commutative key: one secret field next to a public one.
type Key struct {
	// seclint:secret encryption exponent
	E *big.Int
	// P is the public modulus; selecting it must stay clean even
	// though the struct also holds a secret.
	P *big.Int
}

// seclint:secret fixture master exponent
var masterE = big.NewInt(7)

var table = []int{1, 2, 3, 4}

// randomSecret models drawing key material: its results are secret.
//
// seclint:secret drawn exponent
func randomSecret() *big.Int { return big.NewInt(3) }

// ladder has one secret parameter, named by the annotation.
//
// seclint:secret e
func ladder(x, e, m *big.Int) *big.Int {
	return new(big.Int).Exp(x, e, m)
}

// useMaster feeds the annotated var into a variable-time exponent.
func useMaster() *big.Int {
	return new(big.Int).Exp(big.NewInt(2), masterE, nil)
}

// branchOnSecret steers control flow with secret field bits.
func branchOnSecret(k *Key) int {
	if k.E.Sign() > 0 {
		return 1
	}
	return 0
}

// loops bounds a loop by a secret-derived count (and the BitLen call
// itself is variable-time in its receiver).
func loops() int {
	n := randomSecret().BitLen()
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

// indexOnSecret keys a table lookup on secret bits (cache channel).
func indexOnSecret(k *Key) int {
	w := int(k.E.Int64())
	return table[w&3]
}

// allocSecret sizes an allocation by a secret parameter.
//
// seclint:secret bits
func allocSecret(bits int) []byte {
	return make([]byte, bits)
}

// derive launders the secret through stdlib arithmetic; the taint must
// survive Set/Add pass-through and the return.
func derive(k *Key) *big.Int {
	d := new(big.Int).Set(k.E)
	d.Add(d, big.NewInt(1))
	return d
}

// useDerived hits two sinks on one line: the Cmp call is variable-time
// in its secret receiver, and its result steers a branch.
func useDerived(k *Key, m *big.Int) int {
	if derive(k).Cmp(m) > 0 {
		return 1
	}
	return 0
}

// mayFail forwards secret material through a (value, error) pair; the
// error position must stay clean.
func mayFail() (*big.Int, error) { return randomSecret(), nil }

func multi() {
	v, err := mayFail()
	if err != nil { // error values are public: clean
		return
	}
	if v.Sign() < 0 {
		return
	}
}

// closureCapture shares the secret with a closure through a captured
// object; the branch inside the literal is still a finding.
func closureCapture(k *Key) func() int {
	e := new(big.Int).Set(k.E)
	return func() int {
		if e.Sign() == 0 {
			return 0
		}
		return 1
	}
}

// sched is private-key material by type: every value of it is secret
// without any per-field annotation.
//
// seclint:private fixture window schedule
type sched []int

// play ranges over a secret schedule: the element values are secret
// (the bound is the public length), so the lookup they key is flagged.
func play(s sched, tab []int) int {
	acc := 0
	for _, op := range s {
		acc += tab[op]
	}
	return acc
}

// holder receives the secret through a composite literal, tainting the
// field for every later selection.
type holder struct{ v *big.Int }

func fill(k *Key) holder {
	return holder{v: k.E}
}

func readHolder(h holder) int {
	return h.v.BitLen()
}

// pick switches on a secret parameter.
//
// seclint:secret w
func pick(w int) int {
	switch w {
	case 0:
		return 1
	}
	return 0
}

// steer is only ever handed secret arguments; the interprocedural
// summary must carry the call-site taint into its body.
func steer(n int) int {
	if n > 0 {
		return 1
	}
	return 0
}

func caller(k *Key) int {
	return steer(int(k.E.Int64()))
}

// normalize is a pass-through converter with both secret and public
// callers — the wordsOf shape. Call-site-sensitive result derivation
// must taint only the secret caller's copy; without it, one secret
// call site smears the summary over every public caller.
func normalize(x *big.Int) *big.Int {
	return new(big.Int).Set(x)
}

func normalizeSecret(k *Key) int {
	w := normalize(k.E)
	if w.Sign() > 0 {
		return 1
	}
	return 0
}

func normalizePublic(m *big.Int) int {
	w := normalize(m) // public actual: the result must stay clean here
	if w.Sign() > 0 {
		return 1
	}
	return 0
}

// Pub carries a misplaced annotation kind on a field.
type Pub struct {
	// seclint:private not a field annotation
	N *big.Int
}

// seclint:secret constants are compile-time public
const limit = 10

// clean exercises every exemption: nil compares, public sibling
// fields, len of a secret-valued container, error steering.
func clean(k *Key, xs []*big.Int) int {
	if k == nil {
		return 0
	}
	if k.P.Sign() < 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(xs); i++ {
		n += i
	}
	v, err := mayFail()
	if err != nil {
		return n
	}
	_ = v
	return n
}

// wallet is private by type, like sched.
//
// seclint:private fixture signing key
type wallet struct{ d uint64 }

// lastWallet is the last wallet seen.
var lastWallet *wallet

// sameWallet compares two pointers of a private type, which observes
// identity and stays clean, and then the values behind them, which is a
// finding.
func sameWallet(w *wallet) int {
	if lastWallet != w {
		lastWallet = w
		return 0
	}
	if *lastWallet == *w {
		return 1
	}
	return 2
}
