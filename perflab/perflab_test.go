package main

import (
	"bytes"
	"encoding/json"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamDeterministic pins the contract that a seed fixes the request
// stream byte for byte, and that another seed changes it.
func TestStreamDeterministic(t *testing.T) {
	render := func(seed int64) [][]byte {
		p, err := newPlan(workloads["fleet_mixed"], seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, o := range p.ops {
			b := p.body(nil, o)
			out = append(out, append([]byte(o.path()), b...))
		}
		return out
	}
	a, b, c := render(7), render(7), render(8)
	same := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("op %d differs between two plans of seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 produced the same stream")
	}
}

// TestColdBodiesUnique checks that every cold op of a stream carries its
// own graph, so none can be a cache hit.
func TestColdBodiesUnique(t *testing.T) {
	p, err := newPlan(workloads["solve_cold"], 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[refKey]int{}
	for i, o := range p.ops {
		for _, k := range p.keys(o) {
			if j, dup := seen[k]; dup {
				t.Fatalf("ops %d and %d share graph %+v", j, i, k)
			}
			seen[k] = i
		}
	}
}

// correctReply builds the reply kiterd should give for o from the
// references.
func correctReply(t *testing.T, p *plan, rf *refs, o op) reply {
	t.Helper()
	var rp reply
	keys := p.keys(o)
	if !o.sweep {
		v, err := rf.period(keys[0])
		if err != nil {
			t.Fatal(err)
		}
		return reply{period: v.RatString(), optimal: true}
	}
	rp.envelope, rp.completed = true, len(keys)
	for i, k := range keys {
		v, err := rf.period(k)
		if err != nil {
			t.Fatal(err)
		}
		rp.scenarios = append(rp.scenarios, scenarioObs{value: k.t1, period: v.RatString(), optimal: true})
		if i == 0 || v.Cmp(mustRat(t, rp.envMin)) < 0 {
			rp.envMin = v.RatString()
		}
		if i == 0 || v.Cmp(mustRat(t, rp.envMax)) > 0 {
			rp.envMax = v.RatString()
		}
	}
	return rp
}

func mustRat(t *testing.T, s string) *big.Rat {
	t.Helper()
	v, ok := parseRat(s)
	if !ok {
		t.Fatalf("bad rational %q", s)
	}
	return v
}

// TestGateCatchesTamperedPeriod feeds the reference check correct
// replies, then replies with one number changed.
func TestGateCatchesTamperedPeriod(t *testing.T) {
	p, err := newPlan(workloads["solve_cold"], 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	rf := newRefs(p)
	var analyze, sw op
	for _, o := range p.ops {
		if o.sweep {
			sw = o
		} else {
			analyze = o
		}
	}
	if !sw.sweep || analyze.sweep {
		t.Fatal("stream has no /analyze or no /sweep op")
	}
	tamper := func(period string) string {
		v := mustRat(t, period)
		return v.Add(v, big.NewRat(1, 1000)).RatString()
	}
	cases := []struct {
		name  string
		o     op
		edit  func(*reply)
		wrong bool
	}{
		{"analyze correct", analyze, func(*reply) {}, false},
		{"analyze period", analyze, func(r *reply) { r.period = tamper(r.period) }, true},
		{"analyze not optimal", analyze, func(r *reply) { r.optimal = false }, true},
		{"sweep correct", sw, func(*reply) {}, false},
		{"sweep scenario period", sw, func(r *reply) { r.scenarios[3].period = tamper(r.scenarios[3].period) }, true},
		{"sweep envelope", sw, func(r *reply) { r.envMax = tamper(r.envMax) }, true},
		{"sweep missing line", sw, func(r *reply) { r.scenarios = r.scenarios[1:] }, true},
	}
	for _, c := range cases {
		rp := correctReply(t, p, rf, c.o)
		c.edit(&rp)
		why, err := rf.check(c.o, &rp)
		if err != nil {
			t.Fatal(err)
		}
		if (why != "") != c.wrong {
			t.Errorf("%s: check said %q, want wrong=%v", c.name, why, c.wrong)
		}
	}
}

// TestSmoke runs every workload for one second against a freshly built
// kiterd, plus one traced run, and checks each prints a correct result
// with every metric BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots kiterd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kiterd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kiterd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kiterd: %v\n%s", err, out)
	}
	decl := declaredMetrics(t)
	for _, tc := range []struct {
		workload string
		trace    string
		list     string
	}{
		{"analyze_warm", "0", "end_to_end"},
		{"solve_cold", "0", "end_to_end"},
		{"fleet_mixed", "0", "end_to_end"},
		{"solve_cold", "1", "per_layer"},
	} {
		var out bytes.Buffer
		args := []string{"--workload", tc.workload, "--seed", "1", "--seconds", "1", "--trace", tc.trace,
			"-kiterd", bin, "-out", dir}
		if code := run(args, &out); code != 0 {
			t.Fatalf("%s trace %s exited %d:\n%s", tc.workload, tc.trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", tc.workload, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", tc.workload, tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		for name, unit := range decl[tc.list] {
			m, ok := res.Metrics[name]
			if !ok || m.Unit != unit {
				t.Errorf("%s trace %s: metric %s = %+v, want unit %q", tc.workload, tc.trace, name, m, unit)
			}
		}
		if len(res.Metrics) != len(decl[tc.list]) {
			t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", tc.workload, tc.trace, len(res.Metrics), len(decl[tc.list]))
		}
	}
}

// declaredMetrics reads the metric names and units BENCHMARK.json lists.
func declaredMetrics(t *testing.T) map[string]map[string]string {
	t.Helper()
	out, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(out, &b); err != nil {
		t.Fatal(err)
	}
	decl := map[string]map[string]string{}
	for _, list := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(b[list], &ms); err != nil {
			t.Fatal(err)
		}
		decl[list] = map[string]string{}
		for _, m := range ms {
			decl[list][m.Name] = m.Unit
		}
	}
	return decl
}
