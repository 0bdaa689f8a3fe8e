// Package weakrand exercises the weakrand analyzer: math/rand imports
// are forbidden module-wide in non-test code.
package weakrand

import (
	"crypto/rand"
	mrand "math/rand"
)

// Shuffle mixes a predictable permutation with a proper CSPRNG read so
// both import paths are exercised.
func Shuffle(n int) []int {
	out := mrand.Perm(n)
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		panic(err)
	}
	return out
}
