package modexp

// ct.go is the constant-time ladder: a fixed-window Montgomery
// exponentiation whose execution trajectory — operation sequence, loop
// bounds, memory access pattern — depends only on public parameters (the
// modulus and a declared exponent-length bound), never on the exponent's
// bits. It exists for deployments that reject the variable-time caveat
// documented on NewEngine (docs/SECURITY.md): math/big.Exp's windowing
// and zero-skipping follow the exponent's bits, so its execution leaks
// exponent structure to a co-resident attacker; this ladder does not.
//
// Three mechanisms remove the data dependence:
//
//   - Fixed windows. The exponent is split into ⌈bits/w⌉ contiguous
//     w-bit digits (no sliding, no zero-run skipping), so the ladder
//     always performs the same ⌈bits/w⌉·w squarings and ⌈bits/w⌉
//     multiplications for a given public bit bound. Zero digits multiply
//     by the Montgomery representation of 1 — a real multiplication,
//     indistinguishable from any other.
//   - Masked table scans. Every window lookup reads all 2^w table
//     entries and accumulates the selected one with ctEqMask/ctSelectWords
//     (mont.go), so the memory trace is independent of the digit value —
//     no secret-indexed loads.
//   - Constant-time reduction. montMulCT replaces the kernel's final
//     conditional subtraction with an unconditional subtract-and-select.
//
// The price is the skipped work and the assembly kernel math/big.Exp
// enjoys: `go run ./bench` reports the measured overhead as
// modexp.exp_ct_ns against modexp.exp_short_ns / modexp.exp_full_ns, and
// `go test -bench CTvsVariableLadder ./internal/crypto/modexp` as a ratio.

import "math/big"

// publicBitBound declassifies an exponent's bit length. The CT ladder's
// execution trajectory is a function of its length bound alone, and the
// fall-back paths below reach this only when the caller declared the
// true length public (full-length exponents, or short exponents drawn to
// a fixed known size — groups.RandomShortExponent pins both end bits).
// The sanitizer annotation makes this the audited declassification point
// for cttaint: bit-length flows that bypass it are findings.
//
// seclint:sanitizer declared-public exponent bit length
func publicBitBound(e *big.Int) int { return e.BitLen() }

// ctWindowWidth picks the fixed-window width for an exponent bound:
// wider windows amortize multiplications but square the table (and its
// full scan per lookup), so the optimum sits below what a sliding
// window would choose for the same length.
func ctWindowWidth(bits int) int {
	switch {
	case bits < 24:
		return 1
	case bits < 128:
		return 2
	case bits < 512:
		return 3
	case bits < 2048:
		return 4
	default:
		return 5
	}
}

// ExpConstantTime computes x^e mod n in constant time with respect to
// the value of e, given a public bound bits ≥ e.BitLen() on its length
// (the ladder pads to ⌈bits/w⌉ full windows, so only the bound — not
// the exponent's true length or bit pattern — shapes the execution).
// bits ≤ 0 falls back to e.BitLen(), which is the right call only when
// the exponent's length is itself public (e.g. full-length exponents
// drawn to a known size). e must be non-negative; x is reduced into
// [0, n) first and never modified.
func ExpConstantTime(m *Modulus, x, e *big.Int, bits int) *big.Int {
	if e.Sign() < 0 {
		panic("modexp: negative exponent")
	}
	if b := publicBitBound(e); bits < b {
		bits = b
	}
	if bits == 0 {
		// e = 0: x^0 = 1 for every x (math/big.Exp convention, n > 1).
		return big.NewInt(1)
	}
	if x.Sign() < 0 || x.Cmp(m.n) >= 0 {
		x = new(big.Int).Mod(x, m.n)
	}
	k := m.k
	w := ctWindowWidth(bits)
	tabN := 1 << w

	scratch := make([]uint64, k+2)
	buf := make([]uint64, (tabN+3)*k) // table + acc + sel + tmp
	tab := make([][]uint64, tabN)
	for i := range tab {
		tab[i] = buf[i*k : (i+1)*k]
	}
	acc := buf[tabN*k : (tabN+1)*k]
	sel := buf[(tabN+1)*k : (tabN+2)*k]
	tmp := buf[(tabN+2)*k : (tabN+3)*k]

	// tab[0] = R mod n (the Montgomery form of 1), tab[i] = x^i·R mod n.
	m.montMulCT(tab[0], m.one, m.rr, scratch)
	if tabN > 1 {
		m.montMulCT(tab[1], wordsOf(x, k), m.rr, scratch)
		for i := 2; i < tabN; i++ {
			m.montMulCT(tab[i], tab[i-1], tab[1], scratch)
		}
	}

	// Fixed-window digits, most significant first. The digit values are
	// secret; the digit count nd = ⌈bits/w⌉ is a function of the public
	// bound only.
	ew := wordsOf(e, (bits+63)/64)
	digit := func(j int) uint64 {
		bit := j * w
		wi, off := bit/64, uint(bit%64)
		d := ew[wi] >> off
		if off+uint(w) > 64 && wi+1 < len(ew) {
			d |= ew[wi+1] << (64 - off)
		}
		return d & (1<<uint(w) - 1)
	}

	nd := (bits + w - 1) / w
	copy(acc, tab[0]) // acc = 1 in Montgomery form
	for j := nd - 1; j >= 0; j-- {
		if j != nd-1 { // first round: squaring 1 is a no-op, skip is public
			for s := 0; s < w; s++ {
				m.montMulCT(tmp, acc, acc, scratch)
				acc, tmp = tmp, acc
			}
		}
		// Masked scan: read every entry, keep the one matching the digit.
		d := digit(j)
		for i := range sel {
			sel[i] = 0
		}
		for i := 0; i < tabN; i++ {
			ctSelectWords(sel, tab[i], ctEqMask(uint64(i), d))
		}
		m.montMulCT(tmp, acc, sel, scratch)
		acc, tmp = tmp, acc
	}

	out := make([]uint64, k)
	m.montMulCT(out, acc, m.one, scratch) // out of Montgomery form
	return bigOf(out)
}

// NewEngineConstantTime builds an engine whose Exp runs the fixed-window
// constant-time ladder instead of math/big.Exp. padBits declares the
// public bound on the exponent's length (its drawing range, e.g.
// groups.ShortExponentBits or |q|); padBits ≤ 0 uses e.BitLen(),
// treating the true length as public.
func NewEngineConstantTime(mod *Modulus, e *big.Int, padBits int) (*Engine, error) {
	en, err := NewEngine(mod, e)
	if err != nil {
		return nil, err
	}
	if b := publicBitBound(e); padBits < b {
		padBits = b
	}
	en.ctBits = padBits
	return en, nil
}

// ExpConstantTime runs the constant-time ladder with this engine's
// exponent, whichever constructor built it. The length bound is the
// engine's declared padBits for constant-time engines and the exponent's
// own bit length otherwise (ctBits = 0 falls back to it).
func (en *Engine) ExpConstantTime(x *big.Int) *big.Int {
	return ExpConstantTime(en.mod, x, en.e, en.ctBits)
}
