package main

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
)

// solverOptions are kiterd's default solver budgets (-max-nodes,
// -max-pairs), so a reference is computed under the same limits.
var solverOptions = kperiodic.Options{MaxNodes: 2_000_000, MaxPairs: 50_000_000}

// refKey names one distinct graph a workload sends: a pool template, the
// cold perturbation of task 0 (cold ops only) and, for sweep scenarios,
// task 1's phase-1 duration (-1 when unedited).
type refKey struct {
	tmpl  int32
	cold  bool
	delta int64
	t1    int64
}

// keys lists the distinct graphs op o asks kiterd to solve, in scenario
// order for sweeps.
func (p *plan) keys(o op) []refKey {
	base := refKey{tmpl: o.tmpl, cold: !o.warm, delta: o.delta, t1: -1}
	if !o.sweep {
		return []refKey{base}
	}
	t := p.tmpls[o.tmpl]
	d := t.d1
	if !o.warm {
		d = t.d1Scaled
	}
	out := make([]refKey, 0, sweepScenarios)
	for _, v := range sweepValues(d) {
		k := base
		k.t1 = v
		out = append(out, k)
	}
	return out
}

// graph materializes the graph behind k directly from the generated
// graph, without going through any JSON or sweep code.
func (p *plan) graph(k refKey) (*csdf.Graph, error) {
	t := p.tmpls[k.tmpl]
	g := t.graph
	v0 := g.Task(0).Durations[0]
	if k.cold {
		g, v0 = t.scaled, t.d0+k.delta
	}
	return withDurations(g, v0, k.t1)
}

// refs memoizes reference periods computed with a direct kperiodic.KIter
// call. Safe for concurrent use.
type refs struct {
	p  *plan
	mu sync.Mutex
	m  map[refKey]*big.Rat
}

func newRefs(p *plan) *refs { return &refs{p: p, m: map[refKey]*big.Rat{}} }

func (r *refs) lookup(k refKey) (*big.Rat, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}

// solve computes the reference period of k; the result must be certified
// optimal, or the workload itself is unfit for a correctness gate.
func (r *refs) solve(k refKey) (*big.Rat, error) {
	g, err := r.p.graph(k)
	if err != nil {
		return nil, err
	}
	res, err := kperiodic.KIter(g, solverOptions)
	if err != nil {
		return nil, fmt.Errorf("reference for %s (%+v): %w", g.Name, k, err)
	}
	if !res.Optimal {
		return nil, fmt.Errorf("reference for %s (%+v) is not certified optimal", g.Name, k)
	}
	v, ok := new(big.Rat).SetString(res.Period.String())
	if !ok {
		return nil, fmt.Errorf("reference period %q does not parse", res.Period.String())
	}
	return v, nil
}

// period returns the reference for k, computing it on first use.
func (r *refs) period(k refKey) (*big.Rat, error) {
	if v, ok := r.lookup(k); ok {
		return v, nil
	}
	v, err := r.solve(k)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.m[k] = v
	r.mu.Unlock()
	return v, nil
}

// fill computes the references of every op in ops on all CPUs.
func (r *refs) fill(ops []op) error {
	seen := map[refKey]bool{}
	var todo []refKey
	for _, o := range ops {
		for _, k := range r.p.keys(o) {
			if _, ok := r.lookup(k); !ok && !seen[k] {
				seen[k] = true
				todo = append(todo, k)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				if _, err := r.period(todo[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parseRat parses an exact "num/den" or integer period as kiterd renders it.
func parseRat(s string) (*big.Rat, bool) {
	if s == "" {
		return nil, false
	}
	return new(big.Rat).SetString(s)
}

// scenarioObs is one sweep scenario line as kiterd reported it.
type scenarioObs struct {
	value   int64
	period  string
	optimal bool
	err     string
}

// reply is what one op returned, reduced to what the correctness gate
// checks.
type reply struct {
	errText string // transport, HTTP or decode failure
	period  string
	optimal bool
	// Sweep replies: scenario lines plus the closing envelope.
	scenarios        []scenarioObs
	envelope         bool
	envMin, envMax   string
	completed, fails int
}

// checkOne compares one reported period against the reference of k and
// returns the reference; why is non-empty when the result is wrong.
func (r *refs) checkOne(k refKey, period string, optimal bool, failure string) (want *big.Rat, why string, err error) {
	want, err = r.period(k)
	if err != nil {
		return nil, "", err
	}
	got, ok := parseRat(period)
	switch {
	case failure != "":
		return want, "analysis failed: " + failure, nil
	case !ok:
		return want, fmt.Sprintf("period %q is not a rational", period), nil
	case got.Cmp(want) != 0:
		return want, fmt.Sprintf("period %s, reference %s", period, want.RatString()), nil
	case !optimal:
		return want, "result not marked optimal", nil
	}
	return want, "", nil
}

// check compares one reply against the references. It returns a non-empty
// reason when a result is wrong; transport and HTTP failures are not
// checked here.
func (r *refs) check(o op, rp *reply) (string, error) {
	keys := r.p.keys(o)
	if !o.sweep {
		_, why, err := r.checkOne(keys[0], rp.period, rp.optimal, "")
		return why, err
	}
	if !rp.envelope {
		return "sweep stream has no envelope", nil
	}
	if len(rp.scenarios) != len(keys) || rp.completed != len(keys) || rp.fails != 0 {
		return fmt.Sprintf("sweep returned %d scenario lines, %d completed, %d failed; want %d",
			len(rp.scenarios), rp.completed, rp.fails, len(keys)), nil
	}
	byValue := map[int64]refKey{}
	for _, k := range keys {
		byValue[k.t1] = k
	}
	var lo, hi *big.Rat
	for _, sc := range rp.scenarios {
		k, ok := byValue[sc.value]
		if !ok {
			return fmt.Sprintf("unexpected or repeated scenario value %d", sc.value), nil
		}
		delete(byValue, sc.value)
		want, why, err := r.checkOne(k, sc.period, sc.optimal, sc.err)
		if err != nil || why != "" {
			return fmt.Sprintf("scenario %d: %s", sc.value, why), err
		}
		if lo == nil || want.Cmp(lo) < 0 {
			lo = want
		}
		if hi == nil || want.Cmp(hi) > 0 {
			hi = want
		}
	}
	if got, ok := parseRat(rp.envMin); !ok || got.Cmp(lo) != 0 {
		return fmt.Sprintf("envelope minPeriod %q, reference %s", rp.envMin, lo.RatString()), nil
	}
	if got, ok := parseRat(rp.envMax); !ok || got.Cmp(hi) != 0 {
		return fmt.Sprintf("envelope maxPeriod %q, reference %s", rp.envMax, hi.RatString()), nil
	}
	return "", nil
}
