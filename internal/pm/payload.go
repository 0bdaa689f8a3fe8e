package pm

import (
	"crypto/sha256"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
)

// payloadKey is the AES-256 key KDF(M) = SHA-256(tag ‖ M) of a compressed
// point M.
func payloadKey(point []byte) []byte {
	sum := sha256.Sum256(append([]byte("secmediation/pm-payload-key\x00"), point...))
	return sum[:]
}

// SealPayload seals payload with AES-256-GCM under KDF(point). The GCM
// tag is what makes a match recognizable: under any other key the blob
// opens with probability 2⁻¹²⁸. The point is s·G for an s drawn for this
// one evaluation, so the key seals nothing else and the blob carries no
// nonce (hybrid.SealOneTimeKey). Nor does it carry the value's root: the
// payload is a tuple set, whose rows hold the join value itself.
func SealPayload(point, payload, aad []byte) ([]byte, error) {
	return hybrid.SealOneTimeKey(payloadKey(point), payload, aad)
}

// OpenPayload opens a SealPayload blob under KDF(point). ok is false when
// it does not open — the evaluation was not at a root, or the blob was
// tampered with.
// seclint:source PM payload plaintext
func OpenPayload(point, sealed, aad []byte) (payload []byte, ok bool) {
	payload, err := hybrid.OpenOneTimeKey(payloadKey(point), sealed, aad)
	return payload, err == nil
}

// OpenEval is the client's step 8 for one evaluation: decrypt e to the
// point M and open the blob under KDF(M). A ciphertext that is not two
// valid points is an error; a blob that does not open is a non-match.
func OpenEval(sk *ecelgamal.PrivateKey, e Eval, aad []byte) (payload []byte, ok bool, err error) {
	c, err := ecelgamal.DecodeCiphertext(e.Cipher)
	if err != nil {
		return nil, false, err
	}
	payload, ok = OpenPayload(sk.Decrypt(c), e.Sealed, aad)
	return payload, ok, nil
}
