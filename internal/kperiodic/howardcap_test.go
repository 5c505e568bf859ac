package kperiodic_test

import (
	"errors"
	"fmt"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/mcr"
)

// expansionBudget bounds the K = q cross-check; larger expansions are
// skipped, as in the benchmark tables.
const expansionBudget = 2_000

// checkColdSolve runs K-Iter on g and holds it to three claims: no round
// reaches Howard's round cap, the result is optimal, and it equals the
// full expansion's period whenever that fits expansionBudget.
func checkColdSolve(t *testing.T, name string, g *csdf.Graph) {
	t.Helper()
	res, err := kperiodic.KIter(g, kperiodic.Options{})
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	for i, step := range res.Trace {
		if step.HowardIterations >= mcr.DefaultHowardRounds {
			t.Errorf("%s: round %d took %d Howard rounds, the cap", name, i+1, step.HowardIterations)
		}
	}
	if !res.Optimal {
		t.Errorf("%s: K-Iter result not optimal", name)
	}
	exp, err := kperiodic.Expansion(g, kperiodic.Options{MaxNodes: expansionBudget})
	var tl *kperiodic.ErrTooLarge
	switch {
	case errors.As(err, &tl):
	case err != nil:
		t.Errorf("%s: expansion: %v", name, err)
	case exp.Period.Cmp(res.Period) != 0:
		t.Errorf("%s: K-Iter period %s, expansion %s", name, res.Period, exp.Period)
	}
}

// TestNoRoundReachesHowardCap solves cold variants of graphs from the
// four Table 1 suites: every duration ×1000, then small deltas on the
// first phases of tasks 0 and 1. Long policy circuits with large
// durations are where a float round-off once let Howard "improve" a node
// onto the arc it already held, re-evaluating an unchanged policy until
// the round cap. The named cases are two such solves.
func TestNoRoundReachesHowardCap(t *testing.T) {
	lgt := gen.LgTransient(4, 0).Graphs
	for _, c := range []struct {
		name           string
		delta0, delta1 int64
	}{
		{"lgtransient-3 4005/5007", 5, 7},
		{"lgtransient-3 4008/5004", 8, 4},
	} {
		g := gen.ColdVariant(lgt[3], 1000, c.delta0, c.delta1)
		res, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Trace) != 1 || res.Trace[0].HowardIterations != 1 {
			var howard []int
			for _, step := range res.Trace {
				howard = append(howard, step.HowardIterations)
			}
			t.Errorf("%s: want 1 K-Iter round of 1 Howard round, got Howard rounds %v", c.name, howard)
		}
		checkColdSolve(t, c.name, g)
	}

	var graphs []*csdf.Graph
	graphs = append(graphs, gen.ActualDSP().Graphs...)
	graphs = append(graphs, gen.MimicDSP(6, 1).Graphs...)
	graphs = append(graphs, gen.LgHSDF(4, 1).Graphs...)
	graphs = append(graphs, lgt...)
	for _, g := range graphs {
		for _, d0 := range []int64{1, 5, 10, 24} {
			for _, d1 := range []int64{0, 2, 7} {
				checkColdSolve(t, fmt.Sprintf("%s %d/%d", g.Name, d0, d1), gen.ColdVariant(g, 1000, d0, d1))
			}
		}
	}
}
