package das

import (
	"crypto/rsa"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/relation"
)

// EncryptRelation is SealRelation under a fresh bench-only RSA-OAEP
// session for clientKey; it returns the session so the index tables can
// be sealed under it. Bench-only: no protocol path uses it, and the
// frozen benchmark's DAS probes compile against it. Delete it with
// hybrid's RSA form (ROADMAP item 1a).
func EncryptRelation(r *relation.Relation, joinCols []string, its []*IndexTable, clientKey *rsa.PublicKey, workers int) (*EncryptedRelation, *hybrid.Session, error) {
	sess, err := hybrid.NewSession(clientKey)
	if err != nil {
		return nil, nil, err
	}
	er, err := SealRelation(r, joinCols, its, sess, workers)
	if err != nil {
		return nil, nil, err
	}
	return er, sess, nil
}
