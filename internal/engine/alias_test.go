package engine

import (
	"context"
	"fmt"
	"testing"

	"kiter/internal/gen"
)

// submitAliased runs the normal path for a graph with its body digest
// attached, as kiterd's /analyze handler does.
func submitAliased(t *testing.T, e *Engine, body string, req *Request) *Result {
	t.Helper()
	d := DigestOf([]byte(body))
	req.Alias = &d
	res, err := e.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func aliasCount(e *Engine) int {
	e.aliases.mu.RLock()
	defer e.aliases.mu.RUnlock()
	return len(e.aliases.entries)
}

// TestAliasIndexBoundedByCacheCapacity: second sightings of more distinct
// bodies than CacheCapacity never grow the index past it, and the newest
// aliases are the resident ones.
func TestAliasIndexBoundedByCacheCapacity(t *testing.T) {
	const capacity = 4
	e := New(Config{Workers: 1, CacheCapacity: capacity, CacheShards: 1})
	defer e.Close()
	for i := int64(1); i <= 10; i++ {
		body := fmt.Sprint("body-", i)
		for range 2 { // miss, then the cache hit that installs the alias
			submitAliased(t, e, body, &Request{Graph: gen.TwoTaskChain(i, 1), Method: MethodKIter})
		}
		if n := aliasCount(e); n > capacity {
			t.Fatalf("after %d bodies the alias index holds %d entries, cap %d", i, n, capacity)
		}
	}
	if n := aliasCount(e); n != capacity {
		t.Fatalf("alias index holds %d entries, want %d", n, capacity)
	}
	if _, ok := e.SubmitAlias(context.Background(), DigestOf([]byte("body-10"))); !ok {
		t.Fatal("newest alias missing")
	}
	if _, ok := e.SubmitAlias(context.Background(), DigestOf([]byte("body-1"))); ok {
		t.Fatal("oldest alias survived eviction")
	}
}

// TestAliasEvictedResultFallsBack: an alias whose result left the cache is
// a miss, never a stale answer; the normal path recomputes the key and the
// same alias serves again.
func TestAliasEvictedResultFallsBack(t *testing.T) {
	e := New(Config{Workers: 1, CacheCapacity: 1, CacheShards: 1})
	defer e.Close()
	ctx := context.Background()
	d := DigestOf([]byte("a"))
	req := func() *Request { return &Request{Graph: gen.Figure2(), Method: MethodKIter} }

	submitAliased(t, e, "a", req())
	if _, ok := e.SubmitAlias(ctx, d); ok {
		t.Fatal("alias installed on first sighting")
	}
	submitAliased(t, e, "a", req())
	res, ok := e.SubmitAlias(ctx, d)
	if !ok || !res.CacheHit || res.Graph != gen.Figure2().Name {
		t.Fatalf("aliased repeat = %+v, %v", res, ok)
	}

	// Evict a's result: the one-entry cache now holds b.
	submitAliased(t, e, "b", &Request{Graph: gen.TwoTaskChain(3, 1), Method: MethodKIter})
	before := e.Stats()
	if _, ok := e.SubmitAlias(ctx, d); ok {
		t.Fatal("alias served an evicted result")
	}
	if d := e.Stats().Delta(before); d.Submitted != 0 || d.AliasHits != 0 {
		t.Fatalf("alias miss accounted as a submission: %+v", d)
	}
	if res := submitAliased(t, e, "a", req()); res.CacheHit {
		t.Fatal("normal path after eviction claims a cache hit")
	}
	if _, ok := e.SubmitAlias(ctx, d); !ok {
		t.Fatal("alias did not serve again once its key was recomputed")
	}
	st := e.Stats()
	if st.Evaluations != 3 || st.AliasHits != 2 {
		t.Fatalf("stats = %+v, want 3 evaluations / 2 alias hits", st)
	}
}

// TestAliasOnlyForCachedSuccesses: NoCache submissions and failed
// submissions never install an alias, and an alias hit accounts like a
// Submit cache hit.
func TestAliasOnlyForCachedSuccesses(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	for range 3 {
		submitAliased(t, e, "nocache", &Request{Graph: gen.Figure2(), Method: MethodKIter, NoCache: true})
	}
	bad := DigestOf([]byte("bad"))
	for range 3 {
		if _, err := e.Submit(ctx, &Request{Graph: gen.Figure2(), Method: "bogus", Alias: &bad}); err == nil {
			t.Fatal("bogus method accepted")
		}
	}
	if n := aliasCount(e); n != 0 {
		t.Fatalf("alias index holds %d entries, want 0", n)
	}

	for range 2 {
		submitAliased(t, e, "ok", &Request{Graph: gen.Figure2(), Method: MethodKIter})
	}
	before := e.Stats()
	if _, ok := e.SubmitAlias(ctx, DigestOf([]byte("ok"))); !ok {
		t.Fatal("second sighting of a cached success not aliased")
	}
	d := e.Stats().Delta(before)
	if d.Submitted != 1 || d.CacheHits != 1 || d.AliasHits != 1 || d.CacheMisses != 0 || d.HitRate != 1 {
		t.Fatalf("alias hit delta = %+v, want one submitted cache hit", d)
	}
	// AliasHits is windowed through the underflow clamp like every counter.
	if d := before.Delta(e.Stats()); d.AliasHits != 0 {
		t.Fatalf("reversed window AliasHits = %d, want clamped 0", d.AliasHits)
	}
}

// TestAliasClosedEngineMisses: after Close the fast path serves nothing,
// so the caller's normal path reports ErrClosed as before.
func TestAliasClosedEngineMisses(t *testing.T) {
	e := New(Config{Workers: 1})
	for range 2 {
		submitAliased(t, e, "ok", &Request{Graph: gen.Figure2(), Method: MethodKIter})
	}
	e.Close()
	if _, ok := e.SubmitAlias(context.Background(), DigestOf([]byte("ok"))); ok {
		t.Fatal("closed engine answered from the alias index")
	}
}
