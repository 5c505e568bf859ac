package cluster

import (
	"net"
	"net/http"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
)

// The fleet tier is an engine cache backend.
var (
	_ engine.CacheBackend = (*RemoteCache)(nil)
	_ engine.TierStatser  = (*RemoteCache)(nil)
)

// startCacheReplica boots one replica wired the way kiterd wires
// -peers -cache-fleet: the cluster as the engine's Dispatcher, a fleet
// tier behind the local memory tier, and the evaluate, cache get/put and
// healthz endpoints mounted.
func startCacheReplica(t *testing.T, ln net.Listener, peers []string) *replica {
	t.Helper()
	addr := ln.Addr().String()
	cl, err := New(Config{
		Self:             addr,
		Peers:            peers,
		ForwardTimeout:   10 * time.Second,
		ProbeInterval:    20 * time.Millisecond,
		MaxProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New(%s): %v", addr, err)
	}
	local := engine.NewMemoryCache(16, 4096)
	cl.SetLocalCache(local)
	eng := engine.New(engine.Config{
		Workers:      2,
		Dispatcher:   cl,
		CacheBackend: engine.NewTieredCache(local, NewRemoteCache(cl)),
	})
	mux := http.NewServeMux()
	mux.Handle("/cluster/evaluate", cl.EvaluateHandler(eng, 30*time.Second))
	mux.Handle("/cluster/cache/get", cl.CacheGetHandler())
	mux.Handle("/cluster/cache/put", cl.CachePutHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	r := &replica{addr: addr, eng: eng, cl: cl, srv: srv}
	t.Cleanup(func() {
		r.srv.Close()
		r.eng.Close()
		r.cl.Close()
	})
	return r
}

// startCacheFleet boots n replicas clustered with each other.
func startCacheFleet(t *testing.T, n int) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		reps[i] = startCacheReplica(t, lns[i], addrs)
	}
	return reps
}

// fleetTierStats returns the named tier's stats row from an engine.
func tierStats(t *testing.T, e *engine.Engine, tier string) engine.CacheTierStats {
	t.Helper()
	for _, ts := range e.Stats().CacheTiers {
		if ts.Tier == tier {
			return ts
		}
	}
	t.Fatalf("no %q tier on stats: %+v", tier, e.Stats().CacheTiers)
	return engine.CacheTierStats{}
}

// TestFleetWarmStart is the cold-join acceptance test: after a fleet has
// evaluated a sweep, a freshly joined replica replaying the same
// fingerprint set must be served entirely from the fleet tier — zero local
// solves — including the keys the new ring assigns to the joiner itself
// (fetched from their ring successor, the previous owner).
func TestFleetWarmStart(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want := runSweep(t, single, testSpec(t))

	reps := startCacheFleet(t, 3)
	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)
	if total := fleetEvaluations(reps); total != uint64(want.Scenarios) {
		t.Fatalf("warm fleet evaluations = %d, want %d", total, want.Scenarios)
	}

	// Cold replica joins the warm fleet and replays the sweep.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	peers := []string{reps[0].addr, reps[1].addr, reps[2].addr}
	cold := startCacheReplica(t, ln, peers)
	cgot := runSweep(t, cold.eng, testSpec(t))
	requireSameEnvelope(t, cgot, want)

	cs := cold.eng.Stats()
	if cs.Evaluations != 0 {
		t.Fatalf("cold replica solved %d scenarios locally, want 0", cs.Evaluations)
	}
	fleet := tierStats(t, cold.eng, "fleet")
	if fleet.Hits < uint64(want.Scenarios)*9/10 {
		t.Fatalf("fleet-tier hits = %d of %d scenarios, want >= 90%%", fleet.Hits, want.Scenarios)
	}
	if fleet.Bytes == 0 {
		t.Fatalf("fleet tier moved no bytes: %+v", fleet)
	}
	// The memory tier reports a footprint estimate now that promotions
	// filled it (satellite: Bytes for every tier, not just disk).
	if mem := tierStats(t, cold.eng, "memory"); mem.Entries == 0 || mem.Bytes == 0 {
		t.Fatalf("memory tier gauges = %+v, want entries and bytes > 0", mem)
	}
	// And the whole fleet still performed no additional evaluation.
	if total := fleetEvaluations(append(reps, cold)); total != uint64(want.Scenarios) {
		t.Fatalf("fleet evaluations after cold replay = %d, want %d", total, want.Scenarios)
	}
}

// TestFleetTierChaosDegrade arms the dispatch.forward fault — severing
// every fleet interaction: forwards and the cache tier — and asserts the
// replica degrades gracefully: warm keys keep serving from the local
// memory tier, cold keys fall back to local evaluation, and no request
// fails.
func TestFleetTierChaosDegrade(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want := runSweep(t, single, testSpec(t))

	reps := startCacheFleet(t, 3)
	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)

	set, err := faultinject.Parse("dispatch.forward:error")
	if err != nil {
		t.Fatalf("parse faults: %v", err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)
	firedBefore := faultinject.Fired(faultinject.PointForward)

	// Replica 0 is warm for every key (it ran the sweep): the re-run must
	// be answered wholly by its local tiers.
	evalsBefore := reps[0].eng.Stats().Evaluations
	requireSameEnvelope(t, runSweep(t, reps[0].eng, testSpec(t)), want)
	if d := reps[0].eng.Stats().Evaluations - evalsBefore; d != 0 {
		t.Fatalf("warm replica re-evaluated %d scenarios under chaos, want 0 (memory tier)", d)
	}

	// Replica 1 is warm only for its own shard: everything else must fall
	// back to a local solve — degraded but correct, nothing failing.
	s1Before := reps[1].eng.Stats()
	requireSameEnvelope(t, runSweep(t, reps[1].eng, testSpec(t)), want)
	s1 := reps[1].eng.Stats()
	if d := s1.Evaluations - s1Before.Evaluations; d == 0 {
		t.Fatal("severed replica performed no local evaluations; expected fallback solves")
	}
	if s1.Errors != s1Before.Errors {
		t.Fatalf("chaos surfaced evaluation errors: %d -> %d", s1Before.Errors, s1.Errors)
	}
	if faultinject.Fired(faultinject.PointForward) == firedBefore {
		t.Fatal("dispatch.forward fault never fired; chaos exercised nothing")
	}
}

func TestKeyFingerprint(t *testing.T) {
	for in, want := range map[string]string{
		"abc|kiter|throughput": "abc",
		"abc":                  "abc",
		"|kiter":               "",
	} {
		if got := keyFingerprint(in); got != want {
			t.Fatalf("keyFingerprint(%q) = %q, want %q", in, got, want)
		}
	}
}
