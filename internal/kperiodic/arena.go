package kperiodic

import (
	"sync"

	"kiter/internal/mcr"
)

// arena is the reusable scratch of one solve: the bi-valued graph's arc
// arena, the MCRP solver's working arrays and K-Iter's policy carry-over.
// KIterCtx, EvaluateKCtx and ScheduleKCtx borrow one per call instead of
// growing them from empty, and return it once nothing they hand back can
// reach it: every result copies what it keeps (K, lcm(K), the critical
// circuit as PhaseRefs), and rat.Rat values are immutable, so a pooled
// arena never aliases a returned value.
type arena struct {
	mg     *mcr.Graph
	solver *mcr.Solver
	warm   warmStart
}

var arenaPool = sync.Pool{
	New: func() any { return &arena{mg: mcr.New(0), solver: mcr.NewSolver()} },
}

// maxPooledArcs bounds the arc capacity of an arena put back in the pool.
// A pathological K = q expansion can grow an arena to millions of arcs;
// dropping it keeps that one solve from pinning its memory for the
// lifetime of the pool.
const maxPooledArcs = 1 << 16

func getArena() *arena { return arenaPool.Get().(*arena) }

// release returns a to the pool unless it outgrew maxPooledArcs. The
// caller must not touch a, its graph or its solver afterwards.
func (a *arena) release() {
	if a.mg.ArcCap() <= maxPooledArcs {
		arenaPool.Put(a)
	}
}
