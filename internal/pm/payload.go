package pm

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
)

// payloadKey is the AES-256 key KDF(M) = SHA-256(tag ‖ M) of a compressed
// point M.
func payloadKey(point []byte) []byte {
	sum := sha256.Sum256(append([]byte("secmediation/pm-payload-key\x00"), point...))
	return sum[:]
}

// SealPayload seals root ‖ payload with AES-256-GCM under KDF(point). The
// GCM tag is what makes a match recognizable: under any other key the
// blob opens with probability 2⁻¹²⁸.
func SealPayload(point []byte, root *big.Int, payload, aad []byte) ([]byte, error) {
	if root.Sign() < 0 || root.BitLen() > 8*RootBytes {
		return nil, fmt.Errorf("pm: root out of range")
	}
	msg := make([]byte, RootBytes, RootBytes+len(payload))
	root.FillBytes(msg)
	ct, err := hybrid.SealWithKey(payloadKey(point), append(msg, payload...), aad)
	if err != nil {
		return nil, err
	}
	return ct.Marshal(), nil
}

// OpenPayload opens a SealPayload blob under KDF(point). ok is false when
// it does not open — the evaluation was not at a root, or the blob was
// tampered with.
// seclint:source PM payload plaintext
func OpenPayload(point, sealed, aad []byte) (root *big.Int, payload []byte, ok bool) {
	ct, err := hybrid.UnmarshalCiphertext(sealed)
	if err != nil {
		return nil, nil, false
	}
	msg, err := hybrid.OpenWithKey(payloadKey(point), ct, aad)
	if err != nil || len(msg) < RootBytes {
		return nil, nil, false
	}
	return new(big.Int).SetBytes(msg[:RootBytes]), msg[RootBytes:], true
}

// OpenEval is the client's step 8 for one evaluation: decrypt e to the
// point M and open the blob under KDF(M). A ciphertext that is not two
// valid points is an error; a blob that does not open is a non-match.
func OpenEval(sk *ecelgamal.PrivateKey, e Eval, aad []byte) (root *big.Int, payload []byte, ok bool, err error) {
	c, err := ecelgamal.DecodeCiphertext(e.Cipher)
	if err != nil {
		return nil, nil, false, err
	}
	root, payload, ok = OpenPayload(sk.Decrypt(c), e.Sealed, aad)
	return root, payload, ok, nil
}
