package commutative

import (
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ElementSize is the width of a group element on the wire and in memory:
// the big-endian x-coordinate of a non-identity P-256 point.
const ElementSize = 32

// hashTag domain-separates HashToElement from every other SHA-256 use.
const hashTag = "secmediation/p256-element:"

// decompress returns the uncompressed SEC 1 encoding 0x04‖x‖y of the point
// with x-coordinate elem and even y, or an error when elem is not
// ElementSize bytes, is ≥ p, or has no point on the curve.
// elliptic.UnmarshalCompressed is both the range and on-curve test and
// the square root.
func decompress(elem []byte) ([]byte, error) {
	if len(elem) != ElementSize {
		return nil, fmt.Errorf("commutative: element is %d bytes, want %d", len(elem), ElementSize)
	}
	point := make([]byte, 1+2*ElementSize)
	point[0] = 2
	copy(point[1:], elem)
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), point[:1+ElementSize])
	if x == nil {
		return nil, errors.New("commutative: element is not the x-coordinate of a P-256 point")
	}
	point[0] = 4
	y.FillBytes(point[1+ElementSize:])
	return point, nil
}

// HashToElement is the paper's ideal hash h into the group, by
// try-and-increment: SHA-256(tag ‖ label ‖ 0 ‖ counter ‖ data) for counter
// 0, 1, … until the digest is the x-coordinate of a curve point (about two
// tries). The label keeps unrelated protocol runs independent; both
// sources of one run must pass the same label and the same canonical
// encoding of the value (relation.Value.Encode / relation.EncodeValues).
// The number of tries depends on the value, which only the source that
// owns the value can time.
func HashToElement(label string, data []byte) []byte {
	elem, _ := hashToPoint(label, data)
	return elem
}

// hashToPoint is HashToElement returning also the winning digest's
// uncompressed point, which the try-and-increment test decompressed.
func hashToPoint(label string, data []byte) (elem, point []byte) {
	opHash.Add(1)
	h := sha256.New()
	var ctr [4]byte
	for i := uint32(0); ; i++ {
		h.Reset()
		h.Write([]byte(hashTag))
		h.Write([]byte(label))
		h.Write([]byte{0})
		binary.BigEndian.PutUint32(ctr[:], i)
		h.Write(ctr[:])
		h.Write(data)
		elem := h.Sum(nil)
		if point, err := decompress(elem); err == nil {
			return elem, point
		}
	}
}

// CurveKey is a commutative encryption key over P-256: f_k maps the
// x-coordinate of P to the x-coordinate of k·P. Both datasources use the
// one curve (the paper's common domain dom_f) and draw independent scalars.
// seclint:private commutative-encryption scalar
type CurveKey struct {
	priv *ecdh.PrivateKey // seclint:secret the scalar k, 1 ≤ k < n
}

// GenerateCurveKey draws a fresh uniform scalar in [1, n-1].
func GenerateCurveKey(rnd io.Reader) (*CurveKey, error) {
	priv, err := ecdh.P256().GenerateKey(rnd)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	return &CurveKey{priv: priv}, nil
}

// Apply computes f_k(elem). Every element is validated before the secret
// scalar touches it — wrong width, x ≥ p and x with no point on the curve
// are errors — so elements received from a peer can be passed in directly.
// seclint:sanitizer commutative encrypt boundary
func (k *CurveKey) Apply(elem []byte) ([]byte, error) {
	point, err := decompress(elem)
	if err != nil {
		return nil, err
	}
	return k.applyPoint(point)
}

// HashApply computes f_k(h(data)), equal to Apply(HashToElement(label,
// data)), but feeds the point the hash already decompressed straight to
// the scalar multiplication, so the element is decompressed once.
// seclint:sanitizer commutative encrypt boundary
func (k *CurveKey) HashApply(label string, data []byte) ([]byte, error) {
	_, point := hashToPoint(label, data)
	return k.applyPoint(point)
}

// applyPoint multiplies an uncompressed point, one decompress already
// validated, by the secret scalar.
func (k *CurveKey) applyPoint(point []byte) ([]byte, error) {
	pub, err := ecdh.P256().NewPublicKey(point)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	opExp.Add(1)
	return k.priv.ECDH(pub)
}
