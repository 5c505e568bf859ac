package kperiodic_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

// cancelAfter is a context whose Err turns context.Canceled on its n-th
// poll: K-Iter polls once per round, once per source phase row of every
// rebuilt buffer and once per Howard round, so sweeping n cancels solves
// deterministically at every stage of a round.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

func renderStep(st kperiodic.IterStep) string {
	return fmt.Sprintf("K=%v Ω=%s inf=%v crit=%v n=%d m=%d built=%d reused=%d howard=%d",
		st.K, st.Period, st.Infeasible, st.CriticalTasks, st.Nodes, st.Arcs, st.ArcsBuilt, st.ArcsReused, st.HowardIterations)
}

func renderEval(ev *kperiodic.Evaluation) string {
	if ev == nil {
		return "<nil>"
	}
	return fmt.Sprintf("K=%v lcm=%s Ω=%s th=%s crit=%v tasks=%v opt=%v cert=%v n=%d m=%d howard=%d",
		ev.K, ev.LcmK, ev.Period, ev.Throughput, ev.Critical, ev.CriticalTasks,
		ev.Optimal, ev.Certified, ev.Nodes, ev.Arcs, ev.HowardIterations)
}

// renderKIter renders a K-Iter outcome, one line per trace step.
func renderKIter(kr *kperiodic.KIterResult, err error) []string {
	if kr == nil {
		return []string{fmt.Sprintf("err=%v", err)}
	}
	lines := []string{fmt.Sprintf("iters=%d eval=%s err=%v", kr.Iterations, renderEval(kr.Evaluation), err)}
	for _, st := range kr.Trace {
		lines = append(lines, renderStep(st))
	}
	return lines
}

// TestArenaPoolConcurrentSolves runs K-Iter and EvaluateK concurrently on
// different graphs through the shared arena pool, cancelling a share of
// the solves mid-round, and holds every outcome to a fresh-arena run:
// completed results equal it, cancelled ones return a prefix of its trace.
// Results captured before the storm must not change while the pool serves
// other solves. Run it under -race.
func TestArenaPoolConcurrentSolves(t *testing.T) {
	graphs := []*csdf.Graph{
		gen.Figure2(), gen.SampleRateConverter(), gen.CyclicCSDF(), gen.MultiRateCycle(),
		gen.KIterChain(4), gen.KIterChain(8), gen.DeadlockedRing(),
	}
	graphs = append(graphs, gen.ActualDSP().Graphs...)
	graphs = append(graphs, gen.MimicDSP(6, 1).Graphs...)
	opt := kperiodic.Options{}
	bg := context.Background()

	wantKIter := make([][]string, len(graphs))
	wantEval := make([]string, len(graphs))
	for i, g := range graphs {
		wantKIter[i] = renderKIter(kperiodic.KIterFresh(bg, g, opt))
		ev, err := kperiodic.EvaluateKFresh(bg, g, ones(g), opt)
		wantEval[i] = fmt.Sprintf("%s err=%v", renderEval(ev), err)
	}

	// A finished result and a cancelled partial one, taken from pooled
	// arenas before the storm reuses them, on the graph K-Iter takes the
	// most rounds on.
	deep := 0
	for i := range graphs {
		if len(wantKIter[i]) > len(wantKIter[deep]) {
			deep = i
		}
	}
	if len(wantKIter[deep]) < 3 {
		t.Fatalf("no graph takes K-Iter two rounds: %v", wantKIter[deep])
	}
	finished, err := kperiodic.KIterCtx(bg, graphs[deep], opt)
	if err != nil {
		t.Fatal(err)
	}
	finishedEval, err := kperiodic.Evaluate1Ctx(bg, graphs[deep], opt)
	if err != nil {
		t.Fatal(err)
	}
	var partial *kperiodic.KIterResult
	var perr error
	for n := int64(1); partial == nil || len(partial.Trace) == 0; n++ {
		partial, perr = kperiodic.KIterCtx(&cancelAfter{Context: bg, n: n}, graphs[deep], opt)
		if !errors.Is(perr, context.Canceled) {
			t.Fatalf("no poll count cancels %s after a completed round", graphs[deep].Name)
		}
	}
	before := [][]string{renderKIter(finished, nil), {renderEval(finishedEval)}, renderKIter(partial, perr)}

	const workers, perWorker = 4, 60
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				i := (w*perWorker + j*7) % len(graphs)
				g := graphs[i]
				if j%5 == 4 {
					ev, err := kperiodic.Evaluate1Ctx(bg, g, opt)
					if got := fmt.Sprintf("%s err=%v", renderEval(ev), err); got != wantEval[i] {
						errs <- fmt.Errorf("%s: pooled EvaluateK = %s, fresh %s", g.Name, got, wantEval[i])
						return
					}
					continue
				}
				ctx := context.Context(bg)
				if j%3 == 0 {
					ctx = &cancelAfter{Context: bg, n: int64(1 + (w*31+j)%40)}
				}
				kr, err := kperiodic.KIterCtx(ctx, g, opt)
				got := renderKIter(kr, err)
				if errors.Is(err, context.Canceled) {
					cancelled.Add(1)
					// Completed rounds must be the fresh run's first rounds.
					want := wantKIter[i]
					if kr != nil && (kr.Evaluation != nil || len(got)-1 > len(want)-1 ||
						strings.Join(got[1:], "\n") != strings.Join(want[1:len(got)], "\n")) {
						errs <- fmt.Errorf("%s: cancelled trace is not a prefix of the fresh run:\n%s\nfresh:\n%s",
							g.Name, strings.Join(got, "\n"), strings.Join(want, "\n"))
						return
					}
					continue
				}
				if strings.Join(got, "\n") != strings.Join(wantKIter[i], "\n") {
					errs <- fmt.Errorf("%s: pooled K-Iter differs from the fresh run:\n%s\nfresh:\n%s",
						g.Name, strings.Join(got, "\n"), strings.Join(wantKIter[i], "\n"))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cancelled.Load() == 0 {
		t.Error("no solve was cancelled; the test lost its mid-round coverage")
	}
	after := [][]string{renderKIter(finished, nil), {renderEval(finishedEval)}, renderKIter(partial, perr)}
	for k := range before {
		if strings.Join(before[k], "\n") != strings.Join(after[k], "\n") {
			t.Errorf("a returned result changed while the pool served other solves:\n%s\nnow:\n%s",
				strings.Join(before[k], "\n"), strings.Join(after[k], "\n"))
		}
	}
}

func ones(g *csdf.Graph) []int64 {
	K := make([]int64, g.NumTasks())
	for i := range K {
		K[i] = 1
	}
	return K
}
