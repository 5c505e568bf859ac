package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/kperiodic"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends and are then written out with their self times.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUs"`
	Dur    float64 `json:"durUs"`
	Self   float64 `json:"selfUs"`
	// Path marks calls on the request path kiterd itself takes; the
	// others probe a layer's public function on the same input.
	Path bool `json:"path"`
}

// tracer records spans; a nil tracer records nothing, so the untraced
// replay makes exactly the same calls without the timing around them.
type tracer struct {
	epoch time.Time
	spans []span
	open  []time.Time
}

func (t *tracer) start(name string, parent, op int, path bool) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Path: path})
	t.open = append(t.open, time.Now())
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	s := &t.spans[id]
	s.Start = float64(t.open[id].Sub(t.epoch)) / 1e3
	s.Dur = float64(now.Sub(t.open[id])) / 1e3
}

// finish computes self times: a span's duration minus its children's.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].Dur
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.Dur
		}
	}
}

// layerTotals sums span durations and counts calls by name.
func (t *tracer) layerTotals() (total map[string]float64, calls map[string]int) {
	total, calls = map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		total[s.Name] += s.Dur
		calls[s.Name]++
	}
	return total, calls
}

// pathSums returns, per op, the summed duration of its request-path
// spans.
func (t *tracer) pathSums() []float64 {
	byOp := map[int]float64{}
	for _, s := range t.spans {
		if s.Path {
			byOp[s.Op] += s.Dur
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// replayer runs ops single-threaded in-process through the same public
// functions kiterd calls, on an engine configured like kiterd's defaults.
type replayer struct {
	pl      *plan
	rf      *refs
	e       *engine.Engine
	tr      *tracer
	scratch []byte
	w       replayWork
	wrong   []string
}

// replayWork counts what the timed replay did: ops by kind, body bytes,
// and the solver work the K-Iter probe reported.
type replayWork struct {
	analyzeOps, sweepOps, scenarios, bodyBytes int
	solves, rounds, built, reused, howard      int
}

func newEngine(reg *telemetry.Registry, noCache bool) *engine.Engine {
	cfg := engine.Config{CacheCapacity: 4096, CacheShards: 16, Options: solverOptions, Metrics: reg}
	if noCache {
		cfg.CacheCapacity = -1
	}
	return engine.New(cfg)
}

// kiterdEnvelope mirrors the envelope kiterd decodes strictly.
type kiterdEnvelope struct {
	Graph      json.RawMessage `json:"graph"`
	Analyses   []string        `json:"analyses"`
	Method     string          `json:"method"`
	Capacities *bool           `json:"capacities"`
	NoCache    bool            `json:"noCache"`
}

var throughputOnly = []engine.AnalysisKind{engine.AnalysisThroughput}

func (r *replayer) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// probeKIter times kperiodic.KIterCtx on g and folds its trace.
func (r *replayer) probeKIter(ctx context.Context, g *csdf.Graph, parent, idx int) error {
	s := r.tr.start("kperiodic.KIterCtx", parent, idx, false)
	kr, err := kperiodic.KIterCtx(ctx, g, solverOptions)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("K-Iter probe on %s: %w", g.Name, err)
	}
	r.w.solves++
	r.w.rounds += kr.Iterations
	for _, st := range kr.Trace {
		r.w.built += st.ArcsBuilt
		r.w.reused += st.ArcsReused
		r.w.howard += st.HowardIterations
	}
	return nil
}

// op replays one stream op and checks its results.
func (r *replayer) op(ctx context.Context, idx int, o op) error {
	body := r.pl.body(r.scratch, o)
	if !o.warm {
		r.scratch = body
	}
	r.w.bodyBytes += len(body)
	root := r.tr.start("op "+o.path(), -1, idx, false)
	defer r.tr.end(root)
	keys := r.pl.keys(o)
	if !o.sweep {
		r.w.analyzeOps++
		// The decode kiterd's handleAnalyze does: a probe for the "graph"
		// key, a strict envelope decode, then sdf3x.ReadJSON.
		s := r.tr.start("envelope.decode", root, idx, true)
		var probe struct {
			Graph json.RawMessage `json:"graph"`
		}
		graphJSON := body
		method := engine.MethodRace
		if err := json.Unmarshal(body, &probe); err != nil {
			return err
		}
		if probe.Graph != nil {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var env kiterdEnvelope
			if err := dec.Decode(&env); err != nil {
				return err
			}
			graphJSON = env.Graph
			if env.Method != "" {
				method = engine.Method(env.Method)
			}
		}
		r.tr.end(s)
		s = r.tr.start("sdf3x.ReadJSON", root, idx, true)
		g, err := sdf3x.ReadJSON(bytes.NewReader(graphJSON))
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.start("engine.Submit", root, idx, true)
		res, err := r.e.Submit(ctx, &engine.Request{Graph: g, Analyses: throughputOnly, Method: method})
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.start("reply.encode", root, idx, true)
		_, err = json.Marshal(struct {
			Result *engine.Result `json:"result"`
		}{res})
		r.tr.end(s)
		if err != nil {
			return err
		}
		if err := r.checkResult(keys[0], res); err != nil {
			return err
		}
		s = r.tr.start("csdf.Validate", root, idx, false)
		err = g.Validate()
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.start("csdf.FingerprintHex", root, idx, false)
		_ = g.FingerprintHex()
		r.tr.end(s)
		return r.probeKIter(ctx, g, root, idx)
	}
	// /sweep, scenario by scenario: kiterd's Runner overlaps scenario
	// submissions, the replay keeps them sequential so every span is one
	// layer's own time.
	r.w.sweepOps++
	s := r.tr.start("sweep.ParseSpec", root, idx, true)
	spec, err := sweep.ParseSpec(body)
	r.tr.end(s)
	if err != nil {
		return err
	}
	// kiterd fills unset knobs from its defaults.
	if spec.Method == "" {
		spec.Method = string(engine.MethodRace)
	}
	if len(spec.Analyses) == 0 {
		spec.Analyses = []string{string(engine.AnalysisThroughput)}
	}
	s = r.tr.start("sweep.Compile", root, idx, true)
	x, err := sweep.Compile(spec, false)
	r.tr.end(s)
	if err != nil {
		return err
	}
	for i := 0; i < x.Total(); i++ {
		r.w.scenarios++
		s = r.tr.start("sweep.Materialize", root, idx, true)
		g, err := x.Materialize(i)
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.start("engine.Submit", root, idx, true)
		res, err := r.e.Submit(ctx, &engine.Request{Graph: g, Analyses: throughputOnly, Method: engine.Method(spec.Method)})
		r.tr.end(s)
		if err != nil {
			return err
		}
		s = r.tr.start("reply.encode", root, idx, true)
		_, err = json.Marshal(sweep.Point{Scenario: i, Params: x.Assignment(i), Result: res})
		r.tr.end(s)
		if err != nil {
			return err
		}
		if err := r.checkResult(keys[i], res); err != nil {
			return err
		}
		if err := r.probeKIter(ctx, g, root, idx); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) checkResult(k refKey, res *engine.Result) error {
	t := res.Throughput
	if t == nil {
		r.wrongf("no throughput section for %+v", k)
		return nil
	}
	_, why, err := r.rf.checkOne(k, t.Period, t.Optimal, t.Error)
	if why != "" {
		r.wrongf("%+v: %s", k, why)
	}
	return err
}

// prewarm resolves every warm body once, untimed, so the replay engine
// starts from the same resident set kiterd has after its warm-up pass.
func (r *replayer) prewarm(ctx context.Context) error {
	tr := r.tr
	r.tr = nil
	for _, o := range r.pl.warm {
		if err := r.op(ctx, -1, o); err != nil {
			return err
		}
	}
	r.tr, r.w = tr, replayWork{}
	return nil
}

// replay runs ops [0, n) — or as many as fit in budget when n is 0 — and
// returns how many ran and how long they took.
func replay(ctx context.Context, pl *plan, rf *refs, tr *tracer, n int, budget time.Duration) (*replayer, int, time.Duration, error) {
	e := newEngine(telemetry.NewRegistry(), false)
	defer e.Close()
	r := &replayer{pl: pl, rf: rf, e: e, tr: tr}
	if err := r.prewarm(ctx); err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if tr != nil {
		tr.epoch = start
	}
	i := 0
	for ; i < len(pl.ops) && (n == 0 || i < n); i++ {
		if n == 0 && time.Since(start) >= budget {
			break
		}
		if err := r.op(ctx, i, pl.ops[i]); err != nil {
			return nil, 0, 0, fmt.Errorf("replaying op %d: %w", i, err)
		}
	}
	return r, i, time.Since(start), nil
}

// raceStallLimit caps one solve of the race variant: a starved race that
// runs symbolic execution first can take seconds, and the variant counts
// such solves instead of waiting them out.
const raceStallLimit = time.Second

// raceVariant solves the graphs of ops [0, n) on NoCache engines from as
// many concurrent submitters as the timed run has clients, first with the
// race and then with K-Iter alone over the same graphs. It returns the
// CPU-time ratio, the race's symbolic-contestant p50 in milliseconds, how
// many race solves hit raceStallLimit and the race engine's counters.
func raceVariant(ctx context.Context, pl *plan, n int, budget time.Duration) (cpuRatio, symP50ms float64, solved, stalls int, st engine.Stats, err error) {
	var keys []refKey
	for _, o := range pl.ops[:n] {
		keys = append(keys, pl.keys(o)...)
	}
	graphs := make([]*csdf.Graph, len(keys))
	for i, k := range keys {
		if graphs[i], err = pl.graph(k); err != nil {
			return 0, 0, 0, 0, st, err
		}
	}
	// cost solves graphs [0, limit) — or as many as budget allows when
	// limit is 0 — and returns the CPU spent, the count and the stalls.
	cost := func(m engine.Method, reg *telemetry.Registry, limit int) (time.Duration, int, int, error) {
		e := newEngine(reg, true)
		defer func() {
			st = e.Stats()
			e.Close()
		}()
		cpu0, start := selfCPU(), time.Now()
		var next, stalled atomic.Int64
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(graphs) || (limit > 0 && i >= limit) || (limit == 0 && time.Since(start) >= budget) {
						return
					}
					sctx, cancel := context.WithTimeout(ctx, raceStallLimit)
					_, err := e.Submit(sctx, &engine.Request{Graph: graphs[i], Analyses: throughputOnly, Method: m, NoCache: true})
					cancel()
					if errors.Is(err, context.DeadlineExceeded) {
						stalled.Add(1)
					} else if err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, 0, 0, err
		}
		done := int(min(next.Load()-int64(clients), int64(len(graphs))))
		if limit > 0 {
			done = min(done, limit)
		}
		return selfCPU() - cpu0, done, int(stalled.Load()), nil
	}
	reg := telemetry.NewRegistry()
	raceCPU, solved, stalls, err := cost(engine.MethodRace, reg, 0)
	if err != nil {
		return 0, 0, 0, 0, st, err
	}
	raceStats := st
	kiterCPU, _, _, err := cost(engine.MethodKIter, telemetry.NewRegistry(), solved)
	if err != nil {
		return 0, 0, 0, 0, st, err
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, 0, 0, 0, st, err
	}
	ss, err := parseProm(&buf)
	if err != nil {
		return 0, 0, 0, 0, st, err
	}
	h := histogramOf([]scrape{{metrics: ss}}, "kiter_solver_solve_seconds", map[string]string{"method": "symbolic"})
	return float64(raceCPU) / float64(max(kiterCPU, time.Microsecond)), h.quantile(0.5) * 1e3, solved, stalls, raceStats, nil
}

// healthzRTT is the median round trip of GET /healthz on one replica.
func healthzRTT(url string, n int) (time.Duration, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := hc.Get(url + "/healthz")
		if err != nil {
			return 0, err
		}
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(resp.Body)
		resp.Body.Close()
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return quantileDur(ds, 0.5), nil
}

// okOps counts a run's successful window ops and the distinct cold graphs
// they carried.
func okOps(pl *plan, recs []record) (ok, coldKeys int) {
	for _, r := range recs {
		if r.rp.errText != "" {
			continue
		}
		ok++
		if o := opOf(pl, r); !o.warm {
			coldKeys += o.results()
		}
	}
	return ok, coldKeys
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun measures the per-layer metrics: an in-process replay with
// spans (and the same replay without them, for the tracing overhead), the
// race-versus-K-Iter variant, and kiterd's /stats and /metrics deltas
// around an HTTP run plus the flight-recorder variant.
func tracedRun(cfg config, pl *plan, rf *refs) (*outcome, error) {
	out := &outcome{}
	ctx := context.Background()
	w := cfg.spec.name
	part := func(share float64) time.Duration {
		return max(time.Duration(share*float64(cfg.seconds)), 500*time.Millisecond)
	}

	// 1. In-process replay, traced, between two untraced replays of the
	// same ops whose mean is the baseline.
	runtime.GC()
	tr := &tracer{}
	rp, nOps, tracedDur, err := replay(ctx, pl, rf, tr, 0, part(0.2))
	if err != nil {
		return nil, err
	}
	var plainDur time.Duration
	for i := 0; i < 2; i++ {
		runtime.GC()
		_, _, d, err := replay(ctx, pl, rf, nil, nOps, 0)
		if err != nil {
			return nil, err
		}
		plainDur += d / 2
	}
	tr.finish()
	total, calls := tr.layerTotals()
	mean := func(name string) float64 { return ratio(total[name], float64(calls[name])) }
	out.set("bench.trace_overhead_pct", 100*(1-plainDur.Seconds()/tracedDur.Seconds()), "%")
	out.set("sdf3x.decode_us", ratio(total["envelope.decode"]+total["sdf3x.ReadJSON"], float64(rp.w.analyzeOps)), "us")
	out.set("sdf3x.body_kb", ratio(float64(rp.w.bodyBytes)/1024, float64(nOps)), "KB")
	out.set("csdf.validate_us", mean("csdf.Validate"), "us")
	out.set("csdf.fingerprint_us", mean("csdf.FingerprintHex"), "us")
	out.set("engine.submit_us", mean("engine.Submit"), "us")
	out.set("kiterd.encode_us", ratio(total["reply.encode"], float64(nOps)), "us")
	out.set("sweep.parse_us", mean("sweep.ParseSpec"), "us")
	out.set("sweep.compile_us", mean("sweep.Compile"), "us")
	out.set("sweep.materialize_us", mean("sweep.Materialize"), "us")
	out.set("kperiodic.kiter_us", mean("kperiodic.KIterCtx"), "us")
	out.set("kperiodic.rounds_per_solve", ratio(float64(rp.w.rounds), float64(rp.w.solves)), "count")
	out.set("kperiodic.arcs_built_per_solve", ratio(float64(rp.w.built), float64(rp.w.solves)), "count")
	out.set("kperiodic.arcs_reused_per_solve", ratio(float64(rp.w.reused), float64(rp.w.solves)), "count")
	out.set("mcr.howard_iters_per_solve", ratio(float64(rp.w.howard), float64(rp.w.solves)), "count")
	out.note("%s replay: %d ops (%d /analyze, %d /sweep, %d scenarios), traced %.3fs, untraced %.3fs",
		w, nOps, rp.w.analyzeOps, rp.w.sweepOps, rp.w.scenarios, tracedDur.Seconds(), plainDur.Seconds())
	spansPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", w, cfg.seed))
	if err := writeSpans(spansPath, cfg, tr); err != nil {
		return nil, err
	}
	out.note("%s spans written to %s", w, spansPath)

	// 2. Race against K-Iter alone on the same graphs, caching off.
	raceRatio, symP50, solved, stalls, raceStats, err := raceVariant(ctx, pl, nOps, part(0.1))
	if err != nil {
		return nil, err
	}
	races := sumStats([]scrape{{stats: raceStats}})
	out.set("engine.race_starved_ratio", ratio(races.raceStarved, races.raceTotal), "ratio")
	out.set("engine.race_wins_kiter_ratio", ratio(races.raceKIter, races.raceTotal), "ratio")
	out.set("engine.race_cost_ratio", raceRatio, "ratio")
	out.set("engine.race_stalls_per_kop", 1000*ratio(float64(stalls), float64(solved)), "count")
	out.set("symbexec.solve_ms_p50", symP50, "ms")
	out.note("%s race variant: %d graphs solved by %d submitters with race, then with kiter, NoCache; %d race solves cut at %s",
		w, solved, clients, stalls, raceStallLimit)

	// 3. HTTP run against kiterd's shipped defaults, scraped around it.
	f, _, err := boot(cfg.kiterd, cfg.out, cfg.spec.replicas, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	recs := warmUp(pl, f)
	s := &stream{p: pl}
	var readErr error
	read := func(f *fleet) func() probe {
		return func() probe {
			c, err := f.cpu()
			sc, err2 := f.scrapeAll()
			if err == nil {
				err = err2
			}
			if err != nil && readErr == nil {
				readErr = err
			}
			return probe{serverCPU: c, clientCPU: selfCPU(), scrape: sc}
		}
	}
	loaded := runLoad(s, f.urls, clients, warmup, part(0.4), read(f))
	single := runLoad(s, f.urls, 1, 200*time.Millisecond, part(0.15), read(f))
	rtt, err := healthzRTT(f.urls[0], 400)
	if err != nil {
		return nil, err
	}

	// 4. Flight recorder off (-trace-buffer 0) against the default,
	// alternated to cancel drift.
	fOff, _, err := boot(cfg.kiterd, cfg.out, cfg.spec.replicas, []string{"-trace-buffer", "0"})
	if err != nil {
		return nil, err
	}
	defer fOff.stop()
	recs = append(recs, warmUp(pl, fOff)...)
	var opsOn, opsOff int
	var secsOn, secsOff float64
	for round := 0; round < 3; round++ {
		for _, side := range []*fleet{f, fOff} {
			r := runLoad(s, side.urls, clients, 200*time.Millisecond, part(0.07), func() probe { return probe{} })
			n, _ := okOps(pl, r.window)
			if side == f {
				opsOn, secsOn = opsOn+n, secsOn+r.t1.Sub(r.t0).Seconds()
			} else {
				opsOff, secsOff = opsOff+n, secsOff+r.t1.Sub(r.t0).Seconds()
			}
			recs = append(append(recs, r.window...), r.other...)
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	if loaded.exhausted || single.exhausted {
		return nil, fmt.Errorf("request stream exhausted: raise maxRate")
	}
	rateOn, rateOff := float64(opsOn)/secsOn, float64(opsOff)/secsOff
	out.set("telemetry.recorder_cost_pct", 100*(1-rateOn/rateOff), "%")
	out.note("%s recorder variant: %.1f ops/s with -trace-buffer 256, %.1f with 0", w, rateOn, rateOff)

	// The correctness gate covers every HTTP op of this run and the replay.
	recs = append(append(append(recs, loaded.other...), single.window...), single.other...)
	failed, wrong, err := gate(pl, rf, loaded.window, out)
	if err != nil {
		return nil, err
	}
	_, wrongOther, err := gate(pl, rf, recs, out)
	if err != nil {
		return nil, err
	}
	for i, why := range rp.wrong {
		if i < 5 {
			out.note("replay wrong result: %s", why)
		}
	}
	out.attempted, out.failed, out.wrong = len(loaded.window), failed, wrong+wrongOther+len(rp.wrong)
	if out.attempted == 0 {
		return nil, fmt.Errorf("no op completed inside the HTTP window")
	}

	ok, coldKeys := okOps(pl, loaded.window)
	fOK := float64(max(ok, 1))
	before, after := loaded.before.scrape, loaded.after.scrape
	d := sumStats(after).sub(sumStats(before))
	hist := func(name string, match map[string]string) histogram {
		return histogramOf(after, name, match).sub(histogramOf(before, name, match))
	}
	out.set("engine.hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio")
	out.set("engine.cache_lookup_us_p50", hist("kiter_engine_cache_lookup_seconds", nil).quantile(0.5)*1e6, "us")
	qw := hist("kiter_engine_queue_wait_seconds", nil)
	out.set("engine.queue_wait_ms_p50", qw.quantile(0.5)*1e3, "ms")
	out.set("engine.queue_wait_ms_p99", qw.quantile(0.99)*1e3, "ms")
	ev := hist("kiter_engine_evaluation_seconds", nil)
	out.set("engine.evaluation_ms_p50", ev.quantile(0.5)*1e3, "ms")
	out.set("engine.evaluation_ms_p99", ev.quantile(0.99)*1e3, "ms")
	out.set("engine.evaluations_per_op", d.evaluations/fOK, "count")
	out.set("engine.deduped_ratio", ratio(d.deduped, d.submitted), "ratio")
	fw := hist("kiter_cluster_forward_seconds", nil)
	out.set("cluster.forwarded_ratio", ratio(d.forwarded, d.submitted), "ratio")
	out.set("cluster.forward_ms_p50", fw.quantile(0.5)*1e3, "ms")
	out.set("cluster.forward_ms_p99", fw.quantile(0.99)*1e3, "ms")
	out.set("cluster.failed_over", d.failedOver, "count")
	out.set("cluster.claims_granted_per_op", d.claimsGranted/fOK, "count")
	out.set("cluster.claims_served_per_op", d.claimsServed/fOK, "count")
	out.set("cluster.evaluations_per_miss", ratio(d.evaluations, float64(coldKeys)), "ratio")
	out.set("go.alloc_kb_per_op", (familySum(after, "kiter_go_heap_allocs_bytes_total")-familySum(before, "kiter_go_heap_allocs_bytes_total"))/1024/fOK, "KB")
	out.set("go.gc_cycles_per_kop", (familySum(after, "kiter_go_gc_cycles_total")-familySum(before, "kiter_go_gc_cycles_total"))*1000/fOK, "count")
	out.set("bench.client_cpu_ms_per_op", ms(loaded.after.clientCPU-loaded.before.clientCPU)/fOK, "ms")
	out.set("kiterd.http_rtt_us", float64(rtt)/1e3, "us")
	p50single, _, nSingle := latencyStats(single.window)
	paths := tr.pathSums()
	pathP50 := 0.0
	if len(paths) > 0 {
		pathP50 = paths[len(paths)/2]
	}
	out.set("kiterd.unattributed_us", float64(p50single)/1e3-pathP50, "us")
	secs := loaded.t1.Sub(loaded.t0).Seconds()
	out.note("%s traced HTTP run: %.1f ops/s over %.2fs; 1-client p50 %.1fus over %d ops, replay request-path p50 %.1fus",
		w, float64(ok)/secs, secs, float64(p50single)/1e3, nSingle, pathP50)
	out.note("%s wrong_results = %d count", w, out.wrong)
	return out, nil
}

// writeSpans writes the traced replay's spans and a per-layer summary.
func writeSpans(path string, cfg config, tr *tracer) error {
	type layer struct {
		Calls  int     `json:"calls"`
		DurUs  float64 `json:"durUs"`
		SelfUs float64 `json:"selfUs"`
	}
	layers := map[string]*layer{}
	for _, s := range tr.spans {
		name := s.Name
		if strings.HasPrefix(name, "op ") {
			name = "op"
		}
		l := layers[name]
		if l == nil {
			l = &layer{}
			layers[name] = l
		}
		l.Calls++
		l.DurUs += s.Dur
		l.SelfUs += s.Self
	}
	data, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Layers   map[string]*layer `json:"layers"`
		Spans    []span            `json:"spans"`
	}{cfg.spec.name, cfg.seed, layers, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
