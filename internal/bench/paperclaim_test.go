package bench_test

import (
	"testing"

	"kiter/internal/bench"
	"kiter/internal/kperiodic"
	"kiter/internal/symbexec"
)

// TestPaperClaimTable1 checks the shape of the paper's Table 1 on small
// seeds of its four SDFG categories, with deterministic work counts
// standing in for wall times:
//
//   - K-Iter certifies every graph optimal, and its period equals exactly
//     the full expansion's and symbolic execution's, each within budget;
//   - the 1-periodic period is never below K-Iter's;
//   - by work, periodic ≤ K-Iter ≤ expansion in bi-valued graph nodes on
//     every graph, and K-Iter's nodes stay far below the firings symbolic
//     execution simulates.
func TestPaperClaimTable1(t *testing.T) {
	const (
		expansionBudget = 16_000    // K = q bi-valued graph nodes
		symbolicBudget  = 2_000_000 // completed firings
	)
	var kiterNodes, symbolicEvents int64
	for _, suite := range bench.Table1Suites(4, 4, 2, 1) {
		var suiteNodes, suiteEvents int64
		for _, g := range suite.Graphs {
			name := suite.Name + "/" + g.Name
			kr, err := kperiodic.KIter(g, bench.Limits{}.KIterOptions())
			if err != nil {
				t.Errorf("%s: K-Iter: %v", name, err)
				continue
			}
			if !kr.Optimal || !kr.Certified {
				t.Errorf("%s: K-Iter optimal=%v certified=%v", name, kr.Optimal, kr.Certified)
			}
			periodic, err := kperiodic.Evaluate1(g, bench.Limits{}.KIterOptions())
			if err != nil {
				t.Errorf("%s: periodic: %v", name, err)
				continue
			}
			if periodic.Period.Cmp(kr.Period) < 0 {
				t.Errorf("%s: periodic period %s below K-Iter's optimum %s", name, periodic.Period, kr.Period)
			}
			q, err := g.RepetitionVector()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			expNodes := 0 // Σ qt·ϕ(t), the K = q graph's node count
			for _, task := range g.Tasks() {
				expNodes += int(q[task.ID]) * task.Phases()
			}
			if periodic.Nodes > kr.Nodes || kr.Nodes > expNodes {
				t.Errorf("%s: bi-valued nodes periodic %d, K-Iter %d, expansion %d: want non-decreasing",
					name, periodic.Nodes, kr.Nodes, expNodes)
			}
			if expNodes <= expansionBudget {
				exp, err := kperiodic.Expansion(g, bench.Limits{}.KIterOptions())
				if err != nil {
					t.Errorf("%s: expansion: %v", name, err)
				} else if exp.Period.Cmp(kr.Period) != 0 {
					t.Errorf("%s: K-Iter period %s, expansion %s", name, kr.Period, exp.Period)
				}
			}
			suiteNodes += int64(kr.Nodes)
			sym, err := symbexec.Run(g, symbexec.Options{MaxEvents: symbolicBudget})
			if err != nil {
				t.Errorf("%s: symbolic execution: %v", name, err)
				continue
			}
			if sym.Period.Cmp(kr.Period) != 0 {
				t.Errorf("%s: K-Iter period %s, symbolic execution %s", name, kr.Period, sym.Period)
			}
			suiteEvents += sym.Events
		}
		if suiteNodes >= suiteEvents {
			t.Errorf("%s: K-Iter built %d nodes, symbolic execution fired only %d times", suite.Name, suiteNodes, suiteEvents)
		}
		kiterNodes += suiteNodes
		symbolicEvents += suiteEvents
	}
	if 10*kiterNodes > symbolicEvents {
		t.Errorf("K-Iter built %d nodes against %d symbolic firings: want at least 10× fewer", kiterNodes, symbolicEvents)
	}
}
