package engine

import (
	"context"
	"crypto/sha256"
	"sync"
	"time"

	"kiter/internal/telemetry"
)

// Digest is the content address of a serialized request: the SHA-256 of
// the bytes it was decoded from. SHA-256 is deliberate — the alias index
// trusts a digest match as proof that two bodies are identical, so a
// digest a client could collide on purpose (FNV, maphash, any 64- or
// 128-bit non-cryptographic hash) would let it read another graph's
// result. It is the same trust level as csdf.Fingerprint.
type Digest [sha256.Size]byte

// DigestOf returns the content address of body.
func DigestOf(body []byte) Digest { return sha256.Sum256(body) }

// aliasTarget is what an aliased body resolved to on the normal path.
type aliasTarget struct {
	key   string // the engine cache key
	graph string // the graph name replies carry (names are not in the key)
}

// aliasIndex maps request digests to the cache keys they resolved to —
// the content-addressed fast path's only state. A body→key mapping is a
// pure function of the body, so an entry is never wrong, only possibly
// useless: the result it points at may have been evicted, which the
// lookup reports as a miss. The index is bounded FIFO: once limit entries
// are resident, each insert evicts the oldest.
type aliasIndex struct {
	mu      sync.RWMutex
	entries map[Digest]aliasTarget
	order   []Digest // insertion order; order[next] is evicted next once full
	next    int
	limit   int
}

// newAliasIndex returns an index holding at most limit aliases; a
// non-positive limit yields nil, on which every lookup misses and every
// insert is dropped.
func newAliasIndex(limit int) *aliasIndex {
	if limit <= 0 {
		return nil
	}
	return &aliasIndex{entries: make(map[Digest]aliasTarget), limit: limit}
}

func (x *aliasIndex) get(d Digest) (aliasTarget, bool) {
	if x == nil {
		return aliasTarget{}, false
	}
	x.mu.RLock()
	t, ok := x.entries[d]
	x.mu.RUnlock()
	return t, ok
}

func (x *aliasIndex) put(d Digest, t aliasTarget) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.entries[d]; ok {
		// Concurrent second sightings of one body race to install the
		// same target; the first one already did.
		return
	}
	if len(x.order) < x.limit {
		x.order = append(x.order, d)
	} else {
		delete(x.entries, x.order[x.next])
		x.order[x.next] = d
		x.next = (x.next + 1) % x.limit
	}
	x.entries[d] = t
}

// SubmitAlias is Submit's content-addressed fast path: it answers a
// request known only by the digest of its serialized body, without
// decoding, validating or fingerprinting anything. It succeeds only for a
// body an earlier Submit installed (Request.Alias, see there) whose result
// is still cached; it returns (nil, false) otherwise — unknown digest,
// evicted result, closed engine — and the caller takes the normal path
// (after an evicted alias, that path pays a second cache lookup).
// A hit is accounted exactly like a Submit cache hit (Submitted,
// CacheHits, the cache-lookup histogram) plus AliasHits, and the traced
// cache.lookup child carries alias=true.
func (e *Engine) SubmitAlias(ctx context.Context, d Digest) (*Result, bool) {
	t, ok := e.aliases.get(d)
	if !ok {
		return nil, false
	}
	select {
	case <-e.closed:
		return nil, false
	default:
	}
	span := telemetry.FromContext(ctx)
	start := time.Now()
	res, ok := cacheGet(ctx, e.cache, t.key)
	dur := time.Since(start)
	e.met.cacheLookup.Observe(dur.Seconds())
	span.Record("cache.lookup", start, dur).SetAttr("alias", true)
	if !ok {
		return nil, false
	}
	e.stats.submitted.Add(1)
	e.stats.cacheHits.Add(1)
	e.stats.aliasHits.Add(1)
	span.SetAttr("fingerprint", res.Fingerprint)
	span.SetAttr("cacheHit", true)
	out := res.shallowCopy()
	out.Graph = t.graph
	out.CacheHit = true
	return out, true
}
