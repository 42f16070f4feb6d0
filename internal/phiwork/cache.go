package phiwork

import (
	"errors"
	"sync"

	"phiopenssl/internal/dh"
	"phiopenssl/internal/rsakit"
)

// Canonical workload instances. The scheduler aggregates batches by
// Workload pointer identity, so every layer that wraps a crypto identity
// (an RSA key, a DH group) into a Workload must hand out the *same*
// instance for the same identity — otherwise two submissions of the same
// key would open two half-empty batches. These process-wide caches are
// that canonicalization point: callers of every serving layer's
// SubmitWork resolve their keys and groups through them.
//
// Each cache is bounded by CacheMax, the same discipline as phiserve's
// keyTag cache: a long-lived process churning through millions of
// distinct keys must not grow the maps forever. At the cap the cache is
// reset wholesale; a key seen again afterwards gets a fresh instance,
// which only costs aggregation (its in-flight lanes finish under the old
// instance, new lanes open a new batch) — never correctness.

// CacheMax bounds each workload-instance cache.
const CacheMax = 1024

// instanceCache is one bounded identity -> Workload map.
type instanceCache[K comparable, W Workload] struct {
	mu sync.Mutex
	m  map[K]W
}

func (c *instanceCache[K, W]) get(k K, mk func() W) W {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.m[k]; ok {
		return w
	}
	if c.m == nil || len(c.m) >= CacheMax {
		c.m = make(map[K]W)
	}
	w := mk()
	c.m[k] = w
	return w
}

func (c *instanceCache[K, W]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

var (
	rsaPrivCache  instanceCache[*rsakit.PrivateKey, *RSAPrivate]
	pssCache      instanceCache[*rsakit.PrivateKey, *PSSSign]
	pubCache      instanceCache[*rsakit.PublicKey, *RSAPublic]
	dheFixedCache instanceCache[string, *DHEFixed]
	dheVarCache   instanceCache[string, *DHEVar]
)

// RSAPrivateFor returns the canonical rsa-priv workload for key: every
// call with the same key pointer returns the same instance, so their
// requests fill the same batches.
func RSAPrivateFor(key *rsakit.PrivateKey) *RSAPrivate {
	return rsaPrivCache.get(key, func() *RSAPrivate { return NewRSAPrivate(key) })
}

// PSSSignFor returns the canonical pss-sign workload for key. It is a
// distinct instance from RSAPrivateFor(key) on purpose: signing and
// decryption traffic on one key aggregate, route and meter separately.
func PSSSignFor(key *rsakit.PrivateKey) *PSSSign {
	return pssCache.get(key, func() *PSSSign { return NewPSSSign(key) })
}

// RSAPublicFor returns the canonical public-op workload for pub.
func RSAPublicFor(pub *rsakit.PublicKey) *RSAPublic {
	return pubCache.get(pub, func() *RSAPublic { return NewRSAPublic(pub) })
}

// DHEFixedFor returns the canonical fixed-base workload for the group
// (keyed by group name: dh.Group values are copied freely, the name is
// the identity).
func DHEFixedFor(g dh.Group) *DHEFixed {
	return dheFixedCache.get(g.Name, func() *DHEFixed { return NewDHEFixed(g) })
}

// DHEVarFor returns the canonical variable-base workload for the group.
func DHEVarFor(g dh.Group) *DHEVar {
	return dheVarCache.get(g.Name, func() *DHEVar { return NewDHEVar(g) })
}

// Transient reports whether a per-lane batch error is retryable: a
// Bellcore-detected computational fault is transient (a fresh pass on
// healthy hardware should succeed, and an independent card is an
// independent fault domain), while a validation failure — a degenerate
// DHE shared secret, an out-of-range operand — is a property of the
// input and must not ride retries or poison the circuit breaker.
func Transient(err error) bool {
	return errors.Is(err, rsakit.ErrFaultDetected)
}
