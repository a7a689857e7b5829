package fleet

import (
	"sync"

	"repro/internal/sha1"
)

// The appraisal cache: verification has two halves with very different
// costs. The MAC check is per-quote and can never be cached (it binds a
// fresh nonce). The identity appraisal — is this measurement a
// known-good published build? — depends only on the measurement digest,
// so across a fleet running a handful of firmware builds the verdict is
// computed once per distinct digest and served from cache for every
// other device. Today the miss path is a set membership test; once the
// attestation PKI lands (the carried-over attestation-PKI item in
// ROADMAP.md) it becomes a certificate-chain walk, and the cache is what
// keeps the plane's throughput flat.

// Cache memoizes identity appraisals keyed by measurement digest. Safe
// for concurrent use. Lookup and fill happen under one lock, so the
// miss count equals the number of distinct digests appraised —
// deterministic regardless of how many devices race on the same digest.
type Cache struct {
	mu      sync.Mutex
	good    map[sha1.Digest]bool // known-good published builds
	verdict map[sha1.Digest]bool // memoized appraisals
	hits    uint64
	misses  uint64
}

// NewCache builds a cache over the published known-good measurement
// set.
func NewCache(knownGood []sha1.Digest) *Cache {
	c := &Cache{
		good:    make(map[sha1.Digest]bool, len(knownGood)),
		verdict: make(map[sha1.Digest]bool),
	}
	for _, d := range knownGood {
		c.good[d] = true
	}
	return c
}

// Appraise returns whether the digest is a known-good build, and
// whether the verdict came from cache.
func (c *Cache) Appraise(d sha1.Digest) (ok, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, cached := c.verdict[d]; cached {
		c.hits++
		return v, true
	}
	c.misses++
	v := c.good[d]
	c.verdict[d] = v
	return v, false
}

// Counts returns the accumulated hit/miss totals.
func (c *Cache) Counts() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
