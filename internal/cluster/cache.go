package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/resultcodec"
	"kiter/internal/telemetry"
)

// cacheKeyHeader carries the cache key on /cluster/cache/get|put requests.
// Keys are fingerprint-derived ASCII a few hundred bytes long, well within
// header limits, and putting them here keeps the put body a bare
// resultcodec frame — the same bytes a disk segment stores.
const cacheKeyHeader = "X-Kiter-Cache-Key"

// resultContentType is the media type of a resultcodec frame on the wire,
// used by the cache endpoints and negotiated (via Accept) on
// /cluster/evaluate replies.
const resultContentType = "application/x-kiter-result"

// maxCacheBody caps one cache record on the wire, matching cachedisk's
// per-record payload cap — the size policy every owning replica enforces.
const maxCacheBody = 64 << 20

// cachePutQueue/cachePutWorkers bound the asynchronous remote-put
// machinery: publishes ride a queue drained by a small worker pool, so the
// engine's write-through Put (on the evaluation hot path) never waits on a
// network round trip. A full queue drops the put — the fleet tier is an
// optimization, and the owner can always recompute or be filled by the
// next publisher.
const (
	cachePutQueue   = 256
	cachePutWorkers = 4
)

// keyFingerprint extracts the routing fingerprint from a cache key
// (engine.cacheKey lays keys out as "fingerprint|knobs..."). Routing on
// the fingerprint rather than the whole key keeps cache placement aligned
// with dispatch placement: the replica that evaluates a fingerprint is the
// replica that owns its cached results.
func keyFingerprint(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// RemoteCache is the fleet tier: an engine.CacheBackend that reads and
// writes the cluster's shared result space over /cluster/cache/get|put.
// Composed behind the local tiers — NewTieredCache(memory→disk, fleet) —
// it means a cold replica's misses are answered by the ring owner's warm
// cache instead of a recomputation, and every local evaluation is
// published to its owner for the rest of the fleet.
//
// Placement follows the dispatch ring: a key is fetched from (and
// published to) the owner of its fingerprint. Keys this replica owns
// itself are fetched from the ring successor instead — exactly the member
// that owned them before this replica joined — which is what lets a
// freshly joined replica warm-start even the shard it now owns. All
// traffic rides the cluster's pooled transport behind the per-peer
// circuit breakers: an open breaker turns the tier into an instant miss,
// never a stall.
type RemoteCache struct {
	c *Cluster

	hits, misses atomic.Uint64
	bytesMoved   atomic.Uint64 // payload bytes fetched + published

	putCh   chan remotePut
	dropped atomic.Uint64
	wg      sync.WaitGroup
	once    sync.Once

	// kiter_cache_remote_* instruments; nil without Config.Metrics.
	mHits, mMisses, mPuts, mErrors, mDropped *telemetry.Counter
	mRTT                                     *telemetry.HistogramVec
}

type remotePut struct {
	owner string
	key   string
	body  []byte
	// traceparent carries the publishing request's trace context into the
	// async push, so the owner's put handler still joins the right trace.
	traceparent string
}

// NewRemoteCache builds the fleet tier over c's transport and ring. The
// returned backend is owned by the engine it is configured into (its Close
// stops the publish workers but leaves the Cluster running — close the
// Cluster separately, after the engine).
func NewRemoteCache(c *Cluster) *RemoteCache {
	rc := &RemoteCache{
		c:     c,
		putCh: make(chan remotePut, cachePutQueue),
	}
	if m := c.cfg.Metrics; m != nil {
		rc.mHits = m.Counter("kiter_cache_remote_hits_total",
			"Fleet-tier cache lookups answered by a peer.")
		rc.mMisses = m.Counter("kiter_cache_remote_misses_total",
			"Fleet-tier cache lookups that missed (including breaker-open and error short-circuits).")
		rc.mPuts = m.Counter("kiter_cache_remote_puts_total",
			"Results published to their ring owner.")
		rc.mErrors = m.Counter("kiter_cache_remote_errors_total",
			"Fleet-tier operations that failed in transit.")
		rc.mDropped = m.Counter("kiter_cache_remote_dropped_total",
			"Publishes dropped because the async put queue was full.")
		rc.mRTT = m.HistogramVec("kiter_cache_remote_rtt_seconds",
			"Round-trip time of fleet-tier cache operations, in seconds.",
			telemetry.LatencyBuckets, "op")
	}
	rc.wg.Add(cachePutWorkers)
	for i := 0; i < cachePutWorkers; i++ {
		go rc.putWorker()
	}
	return rc
}

// fetchOwner resolves where to read key from: its ring owner, or — when
// this replica owns it — the ring successor that owned it before this
// replica joined. Empty means nobody suitable is alive.
func (rc *RemoteCache) fetchOwner(key string) string {
	fp := keyFingerprint(key)
	owner := rc.c.Owner(fp)
	if owner != rc.c.self {
		return owner
	}
	// Successor lookup: the owner of fp with self excluded from the ring.
	return rc.c.ring.owner(fp, func(m string) bool {
		return m != rc.c.self && rc.c.alive(m)
	})
}

// Get implements engine.CacheBackend: one breaker-guarded round trip to
// the key's owner (or successor). Every failure mode — no peer, open
// breaker, injected fault, transport error, corrupt frame — degrades to a
// miss; the caller then falls through to a local evaluation.
func (rc *RemoteCache) Get(key string) (*engine.Result, bool) {
	return rc.GetCtx(context.Background(), key)
}

// GetCtx is the context-aware Get the engine prefers
// (engine.CtxCacheBackend): the remote hop opens a child span under the
// request's trace, propagates the trace context to the owner, honors the
// caller's cancellation, and explains degrade paths as span events.
func (rc *RemoteCache) GetCtx(ctx context.Context, key string) (*engine.Result, bool) {
	gctx, span := telemetry.StartSpan(ctx, "cache.fleet.get")
	defer span.End()
	owner := rc.fetchOwner(key)
	if owner == "" {
		return rc.miss()
	}
	span.SetAttr("owner", owner)
	ps := rc.c.peer(owner)
	if ps == nil || !ps.breaker.Allow() {
		span.Event("breaker.open", "peer", owner)
		return rc.miss()
	}
	// Chaos seam: the fleet tier degrades with the same "dispatch.forward"
	// point the forwarding path uses — arming it severs the replica from
	// its peers, cache tier included, and everything must fall back to the
	// local tiers.
	if faultinject.Fire(faultinject.PointForward) != nil {
		span.Event("chaos.severed", "point", faultinject.PointForward, "peer", owner)
		return rc.miss()
	}
	start := time.Now()
	res, ok, err := rc.fetch(gctx, owner, key)
	rc.mRTT.With("get").Observe(time.Since(start).Seconds())
	if err != nil {
		rc.c.noteForwardFailure(ps)
		rc.mErrors.Add(1)
		span.SetAttr("error", err.Error())
		return rc.miss()
	}
	ps.breaker.Success()
	span.SetAttr("hit", ok)
	if !ok {
		return rc.miss()
	}
	rc.hits.Add(1)
	rc.mHits.Add(1)
	return res, true
}

func (rc *RemoteCache) miss() (*engine.Result, bool) {
	rc.misses.Add(1)
	rc.mMisses.Add(1)
	return nil, false
}

// fetch performs the GET round trip: 200 + frame is a hit, 204 a miss,
// anything else an error charged to the peer's breaker. The parent ctx
// supplies cancellation and trace context; the op timeout still applies.
func (rc *RemoteCache) fetch(parent context.Context, owner, key string) (*engine.Result, bool, error) {
	ctx, cancel := context.WithTimeout(parent, rc.c.opTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+"/cluster/cache/get", nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(cacheKeyHeader, key)
	req.Header.Set(peerHeader, rc.c.self)
	if sc := telemetry.FromContext(parent).Context(); sc.Valid() {
		req.Header.Set(telemetry.Traceparent, sc.Traceparent())
	}
	resp, err := rc.c.cfg.Client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, nil
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("cluster: cache get from %s: %s: %s", owner, resp.Status, firstLine(body))
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxCacheBody+1))
	if err != nil {
		return nil, false, err
	}
	if len(frame) > maxCacheBody {
		return nil, false, fmt.Errorf("cluster: cache get from %s: frame too large", owner)
	}
	// Normalization marks the result fleet-origin (Peer set), which is
	// also what stops the local write-through from bouncing it straight
	// back to the owner.
	res, err := decodeBinaryResult(frame, owner)
	if err != nil {
		return nil, false, err
	}
	rc.bytesMoved.Add(uint64(len(frame)))
	return res, true, nil
}

// Put implements engine.CacheBackend: publish res to its ring owner,
// asynchronously (the caller is the evaluation hot path). Results that
// came from the fleet in the first place (Peer set: remote cache hits,
// forwarded evaluations) are skipped — their owner already has them — as
// are keys this replica owns itself: local tiers hold those, and peers
// fetch them from here via the successor rule.
func (rc *RemoteCache) Put(key string, res *engine.Result) {
	rc.PutCtx(context.Background(), key, res)
}

// PutCtx is the context-aware Put (engine.CtxCacheBackend): it captures
// the caller's trace context into the queued publish so the owner's put
// handler records its subtree under the originating request's trace even
// though the push happens asynchronously.
func (rc *RemoteCache) PutCtx(ctx context.Context, key string, res *engine.Result) {
	if res == nil || res.Peer != "" {
		return
	}
	fp := keyFingerprint(key)
	owner := rc.c.Owner(fp)
	if owner == rc.c.self {
		return
	}
	span := telemetry.FromContext(ctx)
	if ps := rc.c.peer(owner); ps == nil || !ps.breaker.Allow() {
		span.Event("breaker.open", "peer", owner, "op", "cache.fleet.put")
		return
	}
	if faultinject.Fire(faultinject.PointForward) != nil {
		span.Event("chaos.severed", "point", faultinject.PointForward, "peer", owner, "op", "cache.fleet.put")
		return
	}
	if resultcodec.EncodedSize(res) > maxCacheBody {
		return
	}
	select {
	case rc.putCh <- remotePut{owner: owner, key: key, body: resultcodec.Encode(res),
		traceparent: span.Context().Traceparent()}:
	default:
		rc.dropped.Add(1)
		rc.mDropped.Add(1)
	}
}

func (rc *RemoteCache) putWorker() {
	defer rc.wg.Done()
	for p := range rc.putCh {
		rc.push(p)
	}
}

// push performs one publish round trip, charging failures to the owner's
// breaker like any other fleet traffic.
func (rc *RemoteCache) push(p remotePut) {
	ps := rc.c.peer(p.owner)
	if ps == nil || !ps.breaker.Allow() {
		return
	}
	start := time.Now()
	err := rc.send(p)
	rc.mRTT.With("put").Observe(time.Since(start).Seconds())
	if err != nil {
		rc.c.noteForwardFailure(ps)
		rc.mErrors.Add(1)
		return
	}
	ps.breaker.Success()
	rc.mPuts.Add(1)
	rc.bytesMoved.Add(uint64(len(p.body)))
}

// send POSTs one encoded record to its owner's put endpoint. The
// publishing request's traceparent, when set, rides along so the owner's
// handler joins that trace.
func (rc *RemoteCache) send(p remotePut) error {
	ctx, cancel := context.WithTimeout(context.Background(), rc.c.opTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+p.owner+"/cluster/cache/put", bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", resultContentType)
	req.Header.Set(cacheKeyHeader, p.key)
	req.Header.Set(peerHeader, rc.c.self)
	if p.traceparent != "" {
		req.Header.Set(telemetry.Traceparent, p.traceparent)
	}
	resp, err := rc.c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: cache put to %s: %s", p.owner, resp.Status)
	}
	return nil
}

// opTimeout bounds one cache round trip. These are index lookups
// and byte copies, not analyses, so they get a fraction of the forward
// timeout — a slow owner must cost less than the recomputation it saves.
func (c *Cluster) opTimeout() time.Duration {
	t := c.cfg.ForwardTimeout
	if t <= 0 {
		return 5 * time.Second
	}
	if t /= 4; t > 5*time.Second {
		t = 5 * time.Second
	}
	return t
}

// Len implements engine.CacheBackend. The fleet's entry count lives on
// the owners; this tier reports 0 rather than a misleading guess.
func (rc *RemoteCache) Len() int { return 0 }

// Close implements engine.CacheBackend: it drains the publish queue and
// stops the workers. The Cluster itself is not touched.
func (rc *RemoteCache) Close() error {
	rc.once.Do(func() { close(rc.putCh) })
	rc.wg.Wait()
	return nil
}

// TierStats reports the fleet tier on engine.Stats: Bytes is the payload
// volume moved over the wire in both directions — the bandwidth the tier
// costs, since capacity lives on the owners.
func (rc *RemoteCache) TierStats() []engine.CacheTierStats {
	return []engine.CacheTierStats{{
		Tier:   "fleet",
		Hits:   rc.hits.Load(),
		Misses: rc.misses.Load(),
		Bytes:  int64(rc.bytesMoved.Load()),
	}}
}

// SetLocalCache hands the cluster the backend its cache handlers serve
// from — the replica's local tiers (memory→disk), never the fleet tier
// itself, which would recurse. kiterd wires this before mounting the
// handlers; a cluster without it answers every cache get with a miss and
// drops every put.
func (c *Cluster) SetLocalCache(b engine.CacheBackend) {
	c.localCache.Store(&b)
}

func (c *Cluster) localBackend() engine.CacheBackend {
	if p := c.localCache.Load(); p != nil {
		return *p
	}
	return nil
}

// CacheGetHandler serves POST /cluster/cache/get: the owner-side lookup
// of the fleet tier. It consults the replica's local tiers and replies
// 200 + resultcodec frame, or 204 on a miss.
func (c *Cluster) CacheGetHandler() http.Handler {
	return http.HandlerFunc(func(pw http.ResponseWriter, r *http.Request) {
		sw := &statusCapture{ResponseWriter: pw, code: http.StatusOK}
		w := http.ResponseWriter(sw)
		ctx, finish := c.remoteSpan(r, "cluster.cache.get", "/cluster/cache/get")
		defer func() { finish(sw.code) }()
		span := telemetry.FromContext(ctx)
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		key := r.Header.Get(cacheKeyHeader)
		if key == "" {
			writeError(w, http.StatusBadRequest, cacheKeyHeader+" required")
			return
		}
		var res *engine.Result
		if b := c.localBackend(); b != nil {
			if hit, ok := b.Get(key); ok {
				res = hit
			}
		}
		span.SetAttr("hit", res != nil)
		if res == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", resultContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(resultcodec.Encode(res))
	})
}

// CachePutHandler serves POST /cluster/cache/put: a peer publishing a
// result it evaluated for a key this replica owns. The record lands in
// the local tiers, whose quotas are the fleet's size/retention policy for
// this shard. Oversized and undecodable frames are rejected — the owner
// enforces the policy, it does not trust the publisher.
func (c *Cluster) CachePutHandler() http.Handler {
	return http.HandlerFunc(func(pw http.ResponseWriter, r *http.Request) {
		sw := &statusCapture{ResponseWriter: pw, code: http.StatusOK}
		w := http.ResponseWriter(sw)
		_, finish := c.remoteSpan(r, "cluster.cache.put", "/cluster/cache/put")
		defer func() { finish(sw.code) }()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		key := r.Header.Get(cacheKeyHeader)
		if key == "" {
			writeError(w, http.StatusBadRequest, cacheKeyHeader+" required")
			return
		}
		frame, err := io.ReadAll(io.LimitReader(r.Body, maxCacheBody+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		if len(frame) > maxCacheBody {
			writeError(w, http.StatusRequestEntityTooLarge, "record exceeds cache policy")
			return
		}
		res, err := resultcodec.Decode(frame)
		if err != nil {
			writeError(w, http.StatusBadRequest, "undecodable record: "+err.Error())
			return
		}
		// The publisher's per-submission fields do not describe this
		// replica's serves; strip them before the record enters the shard.
		res.Graph = ""
		res.CacheHit = false
		res.Deduped = false
		res.Peer = ""
		if b := c.localBackend(); b != nil {
			b.Put(key, res)
		}
		w.WriteHeader(http.StatusNoContent)
	})
}
