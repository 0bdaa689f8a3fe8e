package mediation

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
)

// A client's RSA key signs one P-256 query root, and each query derives
// its own key from the root and a counter (hybrid.DeriveQueryKey). The
// signature is made once per root, not once per query, and the cache is
// keyed by the RSA key, not by the Client value: a Client built per
// query, concurrent queries and the attempts of a retried query all share
// the key's root. The cache holds one key's root, the last key's to
// query: every client program queries under one key at a time, and a
// process that changes keys pays one signature per change.
const (
	// rootLifetime bounds how long one root serves. A leaked query key
	// reveals its root, and with it every key derived in the root's
	// lifetime, so this is the forward-secrecy window. Ten minutes costs
	// one 2048-bit signature (about a millisecond) per ten minutes of
	// querying.
	rootLifetime = 10 * time.Minute
	// rootCounterLimit bounds the counter so it stays a uvarint of at
	// most 3 bytes.
	rootCounterLimit = 1 << 21
)

// rootClock is the clock that ages roots; tests set it to expire one.
var rootClock = time.Now

// queryRoot is one client key's signed query root.
//
// seclint:private query-root scalar every query key of its lifetime derives from
type queryRoot struct {
	key   *ecdh.PrivateKey // seclint:secret the root scalar x
	point []byte           // X, compressed
	sig   []byte           // the credential key's signature of X
	next  uint64           // the next counter value
	made  time.Time
}

// rootSlot holds one client key's current root. Its lock is held while
// the root is replaced, so concurrent queries on a cold or expired slot
// wait for one signature instead of making one each.
type rootSlot struct {
	mu   sync.Mutex
	root *queryRoot
}

// roots is the process-wide root cache: one slot, the last key's to
// query.
var roots struct {
	mu   sync.Mutex
	last *rsa.PrivateKey
	slot *rootSlot
}

// slotFor returns priv's slot, replacing another key's.
func slotFor(priv *rsa.PrivateKey) *rootSlot {
	roots.mu.Lock()
	defer roots.mu.Unlock()
	if roots.last != priv {
		roots.last, roots.slot = priv, new(rootSlot)
	}
	return roots.slot
}

// nextCounter returns the root to use and the counter value it gives
// this query, first replacing a root that is missing, expired or out of
// counter values.
//
// seclint:guards the slot mutex deliberately covers the root's signature so concurrent queries on a cold or expired root share a single signature instead of each making one
func (s *rootSlot) nextCounter(priv *rsa.PrivateKey) (*queryRoot, uint64, error) {
	now := rootClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.root; r == nil || r.next >= rootCounterLimit || now.Sub(r.made) >= rootLifetime {
		key, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return nil, 0, fmt.Errorf("mediation: query root: %w", err)
		}
		point := hybrid.CompressPoint(key.PublicKey())
		sig, err := signQueryRoot(priv, point)
		if err != nil {
			return nil, 0, err
		}
		s.root = &queryRoot{key: key, point: point, sig: sig, made: now}
	}
	c := s.root.next
	s.root.next++
	return s.root, c, nil
}

// bindQueryKey sets the request's query root, signature and counter from
// priv's cached root and returns the query's derived private key.
func (r *Request) bindQueryKey(priv *rsa.PrivateKey) (*ecdh.PrivateKey, error) {
	if priv == nil {
		return nil, errors.New("mediation: the client has no private key to sign its query root")
	}
	slot := slotFor(priv)
	for {
		root, c, err := slot.nextCounter(priv)
		if err != nil {
			return nil, err
		}
		key, err := hybrid.DeriveQueryKey(root.key, c)
		if errors.Is(err, hybrid.ErrDegenerateQueryKey) {
			continue // a source would deny it: take the next counter
		}
		if err != nil {
			return nil, err
		}
		r.QueryKey, r.QueryKeySig, r.QueryKeyIndex = root.point, root.sig, c
		return key, nil
	}
}
