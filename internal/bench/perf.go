package bench

import (
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

// PerfCase is one graph of the tracked performance suite. The same cases
// back the `go test -bench BenchmarkKIter` targets and the BENCH_*.json
// emitter (cmd/benchjson), so the checked-in trajectory and the CI smoke
// numbers always measure the same work.
type PerfCase struct {
	Name string
	// MultiRound marks cases whose K-Iter run takes several Algorithm 1
	// rounds — the regime the incremental expansion pipeline targets.
	MultiRound bool
	Build      func() *csdf.Graph
}

// PerfCases returns the tracked suite: the paper's running example and an
// industrial-shaped decoder as single-digit-round sanity cases, a cold
// LgTransient variant whose long policy circuit with large durations once
// kept Howard re-evaluating an unchanged policy for 10 000 rounds, plus
// the KIterChain family whose interleaved critical circuits force one
// periodicity bump per round.
func PerfCases() []PerfCase {
	return []PerfCase{
		{Name: "figure2", Build: gen.Figure2},
		{Name: "h263decoder", Build: gen.H263Decoder},
		// LgTransient graph 3 with every duration ×1000 and the first
		// phases of tasks 0 and 1 moved to 4005 and 5007: a single K-Iter
		// round on a 202-task HSDF ring with two chords.
		{Name: "lgtransient3-cold", Build: func() *csdf.Graph {
			return gen.ColdVariant(gen.LgTransient(4, 0).Graphs[3], 1000, 5, 7)
		}},
		{Name: "chain4", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(4) }},
		{Name: "chain8", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(8) }},
		{Name: "chain16", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(16) }},
	}
}

// KIterOptions exposes the guard-railed kperiodic options Run uses, so
// external benchmark drivers (cmd/benchjson) measure exactly the suite's
// configuration.
func (l Limits) KIterOptions() kperiodic.Options { return l.kiterOptions() }

// KIterMeta summarizes one Algorithm 1 run on a perf case: convergence
// rounds, the final bi-valued graph size, and the incremental-expansion
// arc accounting (how many constraint arcs were recomputed vs. replayed
// from a previous round's block cache).
type KIterMeta struct {
	Rounds     int   `json:"rounds"`
	Nodes      int   `json:"nodes"`
	Arcs       int   `json:"arcs"`
	ArcsBuilt  int64 `json:"arcs_built"`
	ArcsReused int64 `json:"arcs_reused"`
}

// MeasureKIter runs K-Iter once on g and extracts the meta counters from
// the iteration trace.
func MeasureKIter(g *csdf.Graph) (KIterMeta, error) {
	res, err := kperiodic.KIter(g, Limits{}.kiterOptions())
	if err != nil {
		return KIterMeta{}, err
	}
	meta := KIterMeta{Rounds: res.Iterations}
	for _, step := range res.Trace {
		meta.Nodes, meta.Arcs = step.Nodes, step.Arcs
		meta.ArcsBuilt += int64(step.ArcsBuilt)
		meta.ArcsReused += int64(step.ArcsReused)
	}
	return meta, nil
}
