package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"kiter/internal/gen"
	"kiter/internal/resilience"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// analyzeReply is one /analyze exchange: status, raw body and, on 200,
// the decoded reply.
type analyzeReply struct {
	code int
	raw  []byte
	resp analyzeResponse
	err  string
}

func analyze(t *testing.T, srv *server, path string, body []byte) analyzeReply {
	t.Helper()
	rec := record(t, srv, http.MethodPost, path, body)
	r := analyzeReply{code: rec.Code, raw: rec.Body.Bytes()}
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(r.raw, &r.resp); err != nil {
			t.Fatal(err)
		}
	} else {
		var e struct{ Error string }
		_ = json.Unmarshal(r.raw, &e)
		r.err = e.Error
	}
	return r
}

// installAlias posts body twice — the first sighting evaluates, the second
// is a normal-path cache hit that installs the alias — and returns that
// cache-hit reply.
func installAlias(t *testing.T, srv *server, body []byte) analyzeReply {
	t.Helper()
	analyze(t, srv, "/analyze", body)
	r := analyze(t, srv, "/analyze", body)
	if r.code != http.StatusOK || !r.resp.Result.CacheHit {
		t.Fatalf("second sighting: status %d, body %s", r.code, r.raw)
	}
	return r
}

// aliasHits reads the fast-path counter.
func aliasHits(srv *server) uint64 { return srv.e.Stats().AliasHits }

// expectFastPath posts body and fails unless the fast path served it.
func expectFastPath(t *testing.T, srv *server, path string, body []byte) analyzeReply {
	t.Helper()
	before := aliasHits(srv)
	r := analyze(t, srv, path, body)
	if r.code != http.StatusOK {
		t.Fatalf("fast path: status %d, body %s", r.code, r.raw)
	}
	if got := aliasHits(srv) - before; got != 1 {
		t.Fatalf("request took the normal path (alias hits +%d)", got)
	}
	return r
}

// expectNormalPath posts body and fails if the fast path served it.
func expectNormalPath(t *testing.T, srv *server, path string, body []byte) analyzeReply {
	t.Helper()
	before := aliasHits(srv)
	r := analyze(t, srv, path, body)
	if got := aliasHits(srv) - before; got != 0 {
		t.Fatalf("request took the fast path (alias hits +%d), status %d", got, r.code)
	}
	return r
}

func renamedFigure2(name string) []byte {
	g := gen.Figure2()
	g.Name = name
	return sweep.GraphJSON(g)
}

func envelope(t *testing.T, fields map[string]any) []byte {
	t.Helper()
	body, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAnalyzeFastPathInvariants pins the content-addressed fast path to
// the normal path: it answers only byte-identical repeats of bodies the
// normal path already answered from the cache, with the reply the normal
// path would give, and refuses everything the normal path refuses.
func TestAnalyzeFastPathInvariants(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, srv *server)
	}{
		{"byte-identical repeat replies like the normal-path hit", func(t *testing.T, srv *server) {
			body := graphBody(t)
			hit := installAlias(t, srv, body)
			fast := expectFastPath(t, srv, "/analyze", body)
			if !bytes.Equal(fast.raw, hit.raw) {
				t.Fatalf("fast-path reply differs from the cache-hit reply:\n%s\n%s", fast.raw, hit.raw)
			}
		}},
		{"whitespace and key-order variants take the normal path", func(t *testing.T, srv *server) {
			body := graphBody(t)
			hit := installAlias(t, srv, body)
			for _, variant := range [][]byte{
				append([]byte(" "), body...),
				bytes.Replace(body, []byte("\n"), []byte("\n\t"), 1),
			} {
				r := expectNormalPath(t, srv, "/analyze", variant)
				if r.code != http.StatusOK || r.resp.Result.Throughput.Period != hit.resp.Result.Throughput.Period {
					t.Fatalf("variant: status %d, body %s", r.code, r.raw)
				}
			}
			g := json.RawMessage(body)
			a := []byte(`{"graph":` + string(g) + `,"method":"kiter"}`)
			b := []byte(`{"method":"kiter","graph":` + string(g) + `}`)
			installAlias(t, srv, a)
			r := expectNormalPath(t, srv, "/analyze", b)
			if r.code != http.StatusOK || r.resp.Result.Throughput.Period != hit.resp.Result.Throughput.Period {
				t.Fatalf("key-order variant: status %d, body %s", r.code, r.raw)
			}
		}},
		{"a renamed graph returns its own name", func(t *testing.T, srv *server) {
			orig, renamed := graphBody(t), renamedFigure2("figure2-renamed")
			want := installAlias(t, srv, orig).resp.Result.Graph
			installAlias(t, srv, renamed)
			if got := expectFastPath(t, srv, "/analyze", renamed).resp.Result.Graph; got != "figure2-renamed" {
				t.Fatalf("renamed body replied graph %q", got)
			}
			if got := expectFastPath(t, srv, "/analyze", orig).resp.Result.Graph; got != want {
				t.Fatalf("original body replied graph %q, want %q", got, want)
			}
		}},
		{"envelopes asking for other work get their own entries", func(t *testing.T, srv *server) {
			g := json.RawMessage(graphBody(t))
			kiter := envelope(t, map[string]any{"graph": g, "method": "kiter"})
			periodic := envelope(t, map[string]any{"graph": g, "method": "periodic"})
			sched := envelope(t, map[string]any{"graph": g, "method": "kiter", "analyses": []string{"throughput", "schedule"}})
			for _, body := range [][]byte{kiter, periodic, sched} {
				installAlias(t, srv, body)
			}
			if m := expectFastPath(t, srv, "/analyze", kiter).resp.Result.Throughput.Method; m != "kiter" {
				t.Fatalf("kiter envelope answered by %s", m)
			}
			if m := expectFastPath(t, srv, "/analyze", periodic).resp.Result.Throughput.Method; m != "periodic" {
				t.Fatalf("periodic envelope answered by %s", m)
			}
			r := expectFastPath(t, srv, "/analyze", sched)
			if r.resp.Result.Schedule == nil {
				t.Fatalf("schedule envelope reply has no schedule: %s", r.raw)
			}
			if r := expectFastPath(t, srv, "/analyze", kiter); r.resp.Result.Schedule != nil {
				t.Fatalf("throughput-only envelope reply has a schedule: %s", r.raw)
			}
		}},
		{"a noCache body is never aliased", func(t *testing.T, srv *server) {
			body := envelope(t, map[string]any{"graph": json.RawMessage(graphBody(t)), "noCache": true})
			for range 4 {
				r := expectNormalPath(t, srv, "/analyze", body)
				if r.code != http.StatusOK || r.resp.Result.CacheHit {
					t.Fatalf("noCache: status %d, body %s", r.code, r.raw)
				}
			}
			if st := srv.e.Stats(); st.Evaluations != 4 {
				t.Fatalf("noCache evaluations = %d, want 4", st.Evaluations)
			}
		}},
		{"an invalid body repeated gets the identical 400", func(t *testing.T, srv *server) {
			g := string(graphBody(t))
			for _, body := range []string{
				"nope",
				`{"name":"empty"}`,
				`{"graph": ` + g + `, "metod": "kiter"}`,
				`{"graph": ` + g + `, "method": "bogus"}`,
			} {
				first := expectNormalPath(t, srv, "/analyze", []byte(body))
				if first.code != http.StatusBadRequest || first.err == "" {
					t.Fatalf("%.30s: status %d, body %s", body, first.code, first.raw)
				}
				for range 3 {
					r := expectNormalPath(t, srv, "/analyze", []byte(body))
					if r.code != first.code || r.err != first.err {
						t.Fatalf("%.30s: repeat got %d %q, first %d %q", body, r.code, r.err, first.code, first.err)
					}
				}
			}
			if n := srv.e.Stats().CacheEntries; n != 0 {
				t.Fatalf("invalid bodies left %d cache entries", n)
			}
		}},
		{"a draining server refuses a known body", func(t *testing.T, srv *server) {
			body := graphBody(t)
			installAlias(t, srv, body)
			srv.startDrain()
			if r := expectNormalPath(t, srv, "/analyze", body); r.code != http.StatusServiceUnavailable {
				t.Fatalf("draining: status %d, body %s", r.code, r.raw)
			}
		}},
		{"an admission shed refuses a known body", func(t *testing.T, srv *server) {
			body := graphBody(t)
			installAlias(t, srv, body)
			srv.admission = resilience.NewAdmission(resilience.Estimator{
				QuantileWait: func(float64) float64 { return 10 },
				Pending:      func() int { return 100 },
				Workers:      1,
			})
			if r := expectNormalPath(t, srv, "/analyze", body); r.code != http.StatusTooManyRequests {
				t.Fatalf("shed: status %d, body %s", r.code, r.raw)
			}
		}},
		{"trace and stats work on the fast path", func(t *testing.T, srv *server) {
			body := graphBody(t)
			normal := analyze(t, srv, "/analyze?trace=1", body)
			if !hasChild(normal.resp.Trace, "decode") {
				t.Fatalf("normal-path trace has no decode span: %s", normal.raw)
			}
			analyze(t, srv, "/analyze", body) // second sighting installs the alias
			r := expectFastPath(t, srv, "/analyze?trace=1&stats=1", body)
			tr := r.resp.Trace
			if tr == nil || tr.Name != "analyze" || r.resp.RequestID == "" {
				t.Fatalf("fast-path trace missing: %s", r.raw)
			}
			if len(tr.Children) != 1 || tr.Children[0].Name != "cache.lookup" || tr.Children[0].Attrs["alias"] != true {
				t.Fatalf("fast-path trace children = %s, want one cache.lookup with alias=true", r.raw)
			}
			if r.resp.Stats == nil || r.resp.Stats.AliasHits != 1 {
				t.Fatalf("fast-path ?stats=1 reply: %s", r.raw)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, newObsServer(t, nil)) })
	}
}

// TestAnalyzeFastPathConcurrentRepeats hammers a few bodies from several
// goroutines at once, so installs, fast-path lookups and normal-path
// submissions interleave (run under -race); every reply must match the
// sequential one and every request must be accounted.
func TestAnalyzeFastPathConcurrentRepeats(t *testing.T) {
	bodies := [][]byte{
		graphBody(t),
		renamedFigure2("figure2-renamed"),
		envelope(t, map[string]any{"graph": sweep.GraphJSON(gen.MultiRateCycle()), "method": "kiter"}),
	}
	type want struct{ graph, period string }
	ref := newTestServer(t)
	wants := make([]want, len(bodies))
	for i, b := range bodies {
		r := analyze(t, ref, "/analyze", b)
		if r.code != http.StatusOK {
			t.Fatalf("reference %d: status %d, body %s", i, r.code, r.raw)
		}
		wants[i] = want{r.resp.Result.Graph, r.resp.Result.Throughput.Period}
	}

	srv := newTestServer(t)
	const workers, rounds = 4, 30
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				k := (w + i) % len(bodies)
				rec := record(t, srv, http.MethodPost, "/analyze", bodies[k])
				var resp analyzeResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("body %d: status %d, body %s", k, rec.Code, rec.Body)
					return
				}
				if got := (want{resp.Result.Graph, resp.Result.Throughput.Period}); got != wants[k] {
					t.Errorf("body %d: got %+v, want %+v", k, got, wants[k])
				}
			}
		}()
	}
	wg.Wait()
	st := srv.e.Stats()
	if st.Submitted != workers*rounds {
		t.Fatalf("submitted = %d, want %d", st.Submitted, workers*rounds)
	}
	if st.AliasHits == 0 || st.AliasHits > st.CacheHits {
		t.Fatalf("alias hits = %d of %d cache hits", st.AliasHits, st.CacheHits)
	}
}

func hasChild(n *telemetry.SpanNode, name string) bool {
	if n == nil {
		return false
	}
	for _, c := range n.Children {
		if c.Name == name {
			return true
		}
	}
	return false
}
