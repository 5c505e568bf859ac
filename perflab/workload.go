package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

const (
	// poolSize is the number of distinct paper-suite graphs a workload
	// draws from: every warm body and every cold template is one of them.
	poolSize = 64
	// sweepScenarios is the family size of every /sweep request.
	sweepScenarios = 8
	// durScale multiplies every duration of a cold template. Cold ops then
	// add a unique delta (1, 2, …) to task 0's first phase, so each op has
	// its own fingerprint while the perturbation stays below one unit of
	// the original time scale for the first durScale-1 ops per template.
	durScale = 1000
	// sentinel is the placeholder duration the cold templates are split
	// at; rendering a cold body splices the real value in its place.
	sentinel = 86400077
)

// spec describes one named workload: how many kiterd replicas serve it,
// the /analyze:/sweep mix and the share of ops drawn from the warm pool.
type spec struct {
	name     string
	replicas int
	analyzeW int
	sweepW   int
	// warmShare is 0, 0.5 or 1: the share of ops drawn from the warm pool.
	warmShare float64
	// refRate is the op rate assumed when references are computed before
	// timing; ops beyond that prefix get theirs after the window.
	refRate float64
}

// workloads are the named traffic mixes; perflab/README.md and
// BENCHMARK.json say why each exists.
var workloads = map[string]spec{
	"analyze_warm": {name: "analyze_warm", replicas: 1, analyzeW: 1, warmShare: 1, refRate: 0},
	"solve_cold":   {name: "solve_cold", replicas: 1, analyzeW: 3, sweepW: 1, warmShare: 0, refRate: 750},
	"fleet_mixed":  {name: "fleet_mixed", replicas: 3, analyzeW: 9, sweepW: 1, warmShare: 0.5, refRate: 700},
}

// template is one pool graph with its pre-rendered bodies.
type template struct {
	// graph is the graph as generated (task names made concrete by a JSON
	// round trip); scaled is the same graph with every duration × durScale.
	graph, scaled *csdf.Graph
	// d0 is the scaled phase-1 duration of task 0 (the cold perturbation
	// site); d1 and d1Scaled are task 1's phase-1 duration, which sweeps
	// vary.
	d0, d1, d1Scaled int64
	t1Name           string
	// envelope selects the {"graph": …} form over a bare graph for the
	// warm body; cold bodies are always envelopes pinning solveMethod.
	envelope bool
	// Warm bodies are complete; cold bodies are pre/post halves around
	// the sentinel.
	warmAnalyze, warmSweep          []byte
	coldAnalyzePre, coldAnalyzePost []byte
	coldSweepPre, coldSweepPost     []byte
}

// op is one entry of the request stream.
type op struct {
	sweep bool
	warm  bool
	tmpl  int32
	// delta is the cold perturbation of task 0 (0 for warm ops); it is
	// unique per template within a stream, so every cold op is a miss.
	delta int64
}

// plan is a workload's graph pool plus its deterministic request stream.
type plan struct {
	spec  spec
	tmpls []*template
	ops   []op
	// warm lists one op per warm body, so a warm-up pass makes every later
	// warm op a cache hit.
	warm []op
}

// Generator seeds of the pool's random suites. The pool is fixed like a
// dataset; the workload seed varies the traffic drawn from it.
const (
	mimicSeed  = 1
	lgHSDFSeed = 1
)

// poolGraphs assembles the 64 paper-suite graphs: the Table 1 ActualDSP
// graphs, the Table 2 stand-ins BlackScholes, JPEG2000 and Pdetect, the
// K-Iter chains of 4, 8 and 16 gadgets, four LgTransient graphs, and the
// first MimicDSP and LgHSDF graphs of their suites.
func poolGraphs() ([]*csdf.Graph, error) {
	gs := gen.ActualDSP().Graphs
	for _, s := range gen.IndustrialSpecs() {
		if s.Name != "BlackScholes" && s.Name != "JPEG2000" && s.Name != "Pdetect" {
			continue
		}
		g, err := gen.Industrial(s)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", s.Name, err)
		}
		gs = append(gs, g)
	}
	gs = append(gs, gen.KIterChain(4), gen.KIterChain(8), gen.KIterChain(16))
	gs = append(gs, gen.LgTransient(4, 0).Graphs...)
	rest := poolSize - len(gs)
	nMimic := (rest + 1) / 2
	mimic := gen.MimicDSP(nMimic, mimicSeed).Graphs
	lg := gen.LgHSDF(rest-nMimic, lgHSDFSeed).Graphs
	if len(mimic) < nMimic || len(lg) < rest-nMimic {
		return nil, fmt.Errorf("generators returned %d MimicDSP and %d LgHSDF graphs, need %d and %d",
			len(mimic), len(lg), nMimic, rest-nMimic)
	}
	gs = append(gs, mimic[:nMimic]...)
	return append(gs, lg[:rest-nMimic]...), nil
}

// graphJSON renders g as kiterd clients send it (indented sdf3x JSON).
func graphJSON(g *csdf.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, g); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// withDurations clones g with the phase-1 durations of tasks 0 and 1
// replaced (v1 < 0 leaves task 1 alone).
func withDurations(g *csdf.Graph, v0, v1 int64) (*csdf.Graph, error) {
	edits := []csdf.Edit{csdf.SetDuration(0, 1, v0)}
	if v1 >= 0 {
		edits = append(edits, csdf.SetDuration(1, 1, v1))
	}
	return g.CloneWithEdits(edits...)
}

// scaleDurations returns g with every phase duration multiplied by f.
func scaleDurations(g *csdf.Graph, f int64) (*csdf.Graph, error) {
	var edits []csdf.Edit
	for _, t := range g.Tasks() {
		for p, d := range t.Durations {
			edits = append(edits, csdf.SetDuration(t.ID, p+1, d*f))
		}
	}
	return g.CloneWithEdits(edits...)
}

// solveMethod is the throughput method every body that reaches a solver
// asks for: cold /analyze envelopes and all sweeps. Under load kiterd's
// default race starves, and a starved race may run symbolic execution
// first; on Pdetect, JPEG2000 and several LgHSDF graphs that stalls one
// op for 1–25 s and grows kiterd past a gigabyte, so throughput under the
// default is a scheduling lottery (150–320 ops/s across seeds on
// solve_cold). The traced run measures that race under the same
// concurrency instead.
const solveMethod = "kiter"

// analyzeBody wraps a graph for /analyze: bare, or as an envelope that
// optionally pins the method.
func analyzeBody(graph []byte, envelope bool, method string) []byte {
	if !envelope {
		return graph
	}
	out := append([]byte(`{"graph":`), graph...)
	out = append(out, `,"analyses":["throughput"]`...)
	if method != "" {
		out = append(out, `,"method":"`+method+`"`...)
	}
	return append(out, '}')
}

// sweepValues lists the task-1 durations a sweep over base value d visits.
func sweepValues(d int64) []int64 {
	vs := make([]int64, sweepScenarios)
	for j := range vs {
		vs[j] = d + int64(j)
	}
	return vs
}

func sweepBody(graph []byte, task string, values []int64) ([]byte, error) {
	tail, err := json.Marshal([]map[string]any{{
		"name":   "d1",
		"target": map[string]any{"kind": "duration", "task": task, "phase": 1},
		"values": values,
	}})
	if err != nil {
		return nil, err
	}
	out := append([]byte(`{"base":`), graph...)
	out = append(out, `,"method":"`+solveMethod+`","parameters":`...)
	out = append(out, tail...)
	return append(out, '}'), nil
}

// splitSentinel cuts body at the single occurrence of the sentinel.
func splitSentinel(body []byte) (pre, post []byte, err error) {
	parts := bytes.Split(body, []byte(strconv.Itoa(sentinel)))
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("sentinel appears %d times, want 1", len(parts)-1)
	}
	return parts[0], parts[1], nil
}

func newTemplate(g *csdf.Graph, envelope bool) (*template, error) {
	raw, err := graphJSON(g)
	if err != nil {
		return nil, err
	}
	// Reading the JSON back gives every task a concrete name, which sweep
	// targets address.
	name := g.Name
	if g, err = sdf3x.ReadJSON(bytes.NewReader(raw)); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if g.NumTasks() < 2 {
		return nil, fmt.Errorf("%s: need at least 2 tasks", g.Name)
	}
	scaled, err := scaleDurations(g, durScale)
	if err != nil {
		return nil, err
	}
	t := &template{
		graph:    g,
		scaled:   scaled,
		d0:       scaled.Task(0).Durations[0],
		d1:       g.Task(1).Durations[0],
		d1Scaled: scaled.Task(1).Durations[0],
		t1Name:   g.Task(1).Name,
		envelope: envelope,
	}
	if t.warmAnalyze, err = graphJSON(g); err != nil {
		return nil, err
	}
	t.warmAnalyze = analyzeBody(t.warmAnalyze, envelope, "")
	if t.warmSweep, err = sweepBody(raw, t.t1Name, sweepValues(t.d1)); err != nil {
		return nil, err
	}
	cold, err := withDurations(scaled, sentinel, -1)
	if err != nil {
		return nil, err
	}
	coldJSON, err := graphJSON(cold)
	if err != nil {
		return nil, err
	}
	if t.coldAnalyzePre, t.coldAnalyzePost, err = splitSentinel(analyzeBody(coldJSON, true, solveMethod)); err != nil {
		return nil, fmt.Errorf("%s: %w", g.Name, err)
	}
	sb, err := sweepBody(coldJSON, t.t1Name, sweepValues(t.d1Scaled))
	if err != nil {
		return nil, err
	}
	if t.coldSweepPre, t.coldSweepPost, err = splitSentinel(sb); err != nil {
		return nil, fmt.Errorf("%s: %w", g.Name, err)
	}
	return t, nil
}

// newPlan builds the pool and the first n ops of the workload's stream.
// The stream derives from seed, so the same seed yields the same bodies
// in the same order.
func newPlan(s spec, seed int64, n int) (*plan, error) {
	gs, err := poolGraphs()
	if err != nil {
		return nil, err
	}
	p := &plan{spec: s}
	for i, g := range gs {
		t, err := newTemplate(g, i%2 == 1)
		if err != nil {
			return nil, err
		}
		p.tmpls = append(p.tmpls, t)
	}
	// Each dimension is stratified: every block of len(pool) ops visits
	// every template once, every block of analyzeW+sweepW ops holds
	// exactly sweepW sweeps, and warm and cold ops alternate in pairs in a
	// random order, so a window's mix does not drift with the seed.
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]bool, s.analyzeW+s.sweepW)
	for i := s.analyzeW; i < len(kinds); i++ {
		kinds[i] = true
	}
	var tq, kq, wq []int
	draw := func(q *[]int, n int) int {
		if len(*q) == 0 {
			*q = rng.Perm(n)
		}
		v := (*q)[0]
		*q = (*q)[1:]
		return v
	}
	if s.warmShare > 0 {
		for i := range p.tmpls {
			p.warm = append(p.warm, op{warm: true, tmpl: int32(i)})
			if s.sweepW > 0 {
				p.warm = append(p.warm, op{warm: true, sweep: true, tmpl: int32(i)})
			}
		}
	}
	counts := make([]int64, len(p.tmpls))
	p.ops = make([]op, n)
	for i := range p.ops {
		o := &p.ops[i]
		o.tmpl = int32(draw(&tq, len(p.tmpls)))
		o.sweep = kinds[draw(&kq, len(kinds))]
		switch s.warmShare {
		case 0:
		case 1:
			o.warm = true
		default:
			o.warm = draw(&wq, 2) == 0
		}
		if !o.warm {
			counts[o.tmpl]++
			o.delta = counts[o.tmpl]
		}
	}
	return p, nil
}

// path is the endpoint op o is sent to.
func (o op) path() string {
	if o.sweep {
		return "/sweep"
	}
	return "/analyze"
}

// body renders op o into dst: a warm op returns its pre-rendered body, a
// cold op costs one copy and one itoa.
func (p *plan) body(dst []byte, o op) []byte {
	t := p.tmpls[o.tmpl]
	if o.warm {
		if o.sweep {
			return t.warmSweep
		}
		return t.warmAnalyze
	}
	pre, post := t.coldAnalyzePre, t.coldAnalyzePost
	if o.sweep {
		pre, post = t.coldSweepPre, t.coldSweepPost
	}
	dst = append(dst[:0], pre...)
	dst = strconv.AppendInt(dst, t.d0+o.delta, 10)
	return append(dst, post...)
}

// results is the number of results op o delivers: one per /analyze, one
// per sweep scenario.
func (o op) results() int {
	if o.sweep {
		return sweepScenarios
	}
	return 1
}
