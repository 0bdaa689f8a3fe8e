// Package subtlecmp exercises the subtlecmp analyzer: variable-time
// equality on secret-named material.
package subtlecmp

import (
	"bytes"
	"crypto/subtle"
	"math/big"
)

// CheckTag short-circuits on the first differing byte of a MAC tag.
func CheckTag(tag, expect []byte) bool {
	return bytes.Equal(tag, expect)
}

// CheckRows compares non-secret data; bytes.Equal is fine here.
func CheckRows(a, b []byte) bool {
	return bytes.Equal(a, b)
}

// KeyArrayEqual compares fixed-size key arrays with ==.
func KeyArrayEqual(key, other [16]byte) bool {
	return key == other
}

// RowArrayEqual compares non-secret arrays; == is fine.
func RowArrayEqual(row, other [16]byte) bool {
	return row == other
}

// SecretExpEqual uses big.Int.Cmp as equality on a secret exponent.
func SecretExpEqual(secretExp, x *big.Int) bool {
	return secretExp.Cmp(x) == 0
}

// CountEqual uses Cmp on public counters; fine.
func CountEqual(count, x *big.Int) bool {
	return count.Cmp(x) == 0
}

// OrderCheck uses Cmp for ordering, not equality; fine even on secrets.
func OrderCheck(secretExp, x *big.Int) bool {
	return secretExp.Cmp(x) < 0
}

// GoodTag is the required constant-time form.
func GoodTag(tag, expect []byte) bool {
	return subtle.ConstantTimeCompare(tag, expect) == 1
}
