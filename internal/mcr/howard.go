package mcr

import (
	"context"
	"math"

	"kiter/internal/rat"
	"kiter/internal/telemetry"
)

// Options tunes Solve.
type Options struct {
	// SkipCertify disables the exact certification pass; the result is
	// then the float64 Howard candidate (Certified=false). Used by
	// intermediate K-Iter rounds and by throughput-shape benchmarks.
	SkipCertify bool
	// MaxHowardRounds bounds policy-improvement rounds (0 = default).
	// Exceeding the bound is harmless when certification is enabled: the
	// certification loop repairs any suboptimal candidate.
	MaxHowardRounds int
}

// DefaultHowardRounds is the policy-round cap Solve applies when
// Options.MaxHowardRounds is 0. Howard normally stops at its policy
// fixpoint within a few dozen rounds.
const DefaultHowardRounds = 10000

// relEps is the relative tolerance for float64 comparisons in the Howard
// fast path. Exactness is restored by certification.
const relEps = 1e-12

func gtEps(a, b float64) bool {
	diff := a - b
	scale := math.Abs(a) + math.Abs(b) + 1
	return diff > relEps*scale
}

// Solver runs MCRP resolutions while holding every O(n)/O(m) working array
// for reuse: the cyclic-core trim state, the compact arc stream, the
// Howard policy and value vectors, the policy-circuit traversal stacks,
// and the exact certification weights. A Solver kept across the rounds of
// one K-Iter run makes each round's resolution allocation-free apart from
// the returned Result. The zero value is ready to use; a Solver must not be
// shared between goroutines.
type Solver struct {
	// cyclic-core trim
	alive   []bool
	outDeg  []int32
	work    []int32
	inStart []int32
	inArcs  []int32
	// Compact arc stream: the arcs of the cyclic core in out-adjacency
	// order, laid out as parallel arrays. The core arcs leaving v are
	// positions arcStart[v] … arcStart[v+1]−1; Howard reads nothing else.
	arcStart []int32
	arcHead  []int32
	arcL     []float64 // float64(L)
	arcHF    []float64
	arcOrig  []int32 // index of the arc in the Graph
	// Howard policy iteration; pol holds arc-stream positions
	pol    []int32
	lambda []float64
	val    []float64
	color  []int8
	order  []int32
	cycle  []int // current policy circuit, arc indices
	best   []int // best circuit of the latest value-determination pass
	// exact certification
	w    []rat.Rat
	dist []rat.Rat
	pred []int32
}

// NewSolver returns an empty Solver.
func NewSolver() *Solver { return &Solver{} }

// Solve computes the maximum cost-to-time ratio of g and a critical
// circuit. It returns ErrNoCycle for acyclic graphs and a *DeadlockError
// when some circuit admits no finite positive period.
func Solve(g *Graph, opt Options) (Result, error) {
	return NewSolver().SolveCtx(context.Background(), g, opt)
}

// SolveCtx is Solve with cancellation: the context is polled once per
// Howard round and once per certification relaxation round, so a caller
// abandoning a large resolution gets control back after at most O(|E|)
// work.
func SolveCtx(ctx context.Context, g *Graph, opt Options) (Result, error) {
	return NewSolver().SolveCtx(ctx, g, opt)
}

// Solve is the Solver equivalent of the package-level Solve, reusing the
// solver's scratch state.
func (s *Solver) Solve(g *Graph, opt Options) (Result, error) {
	return s.SolveCtx(context.Background(), g, opt)
}

// SolveCtx resolves the MCRP on g with cancellation, reusing the solver's
// scratch state. When the context carries a trace span, the Howard
// iteration count and problem size accumulate onto it — the per-solve
// detail a flame graph needs to tell "many cheap policy rounds" from "few
// expensive ones".
func (s *Solver) SolveCtx(ctx context.Context, g *Graph, opt Options) (Result, error) {
	return s.SolveWarmCtx(ctx, g, opt, nil)
}

// SolveWarmCtx is SolveCtx with a warm start: Howard's initial policy
// sends every node v to its first cyclic-core arc whose head is heads[v],
// and falls back to v's first core arc when heads[v] is −1, out of range
// or not such a head. Howard converges from any initial policy and the
// exact certification decides the final answer, so heads only changes how
// many policy rounds the resolution takes and, among critical circuits of
// exactly equal ratio, which one the result reports. K-Iter feeds each
// round the previous round's final policy, see PolicyHeads.
func (s *Solver) SolveWarmCtx(ctx context.Context, g *Graph, opt Options, heads []int32) (Result, error) {
	if !s.trim(g) {
		return Result{}, ErrNoCycle
	}
	s.compact(g, heads)
	res, err := s.howard(ctx, g, opt)
	if err != nil {
		return Result{}, err
	}
	if span := telemetry.FromContext(ctx); span != nil {
		span.AddInt("howardIterations", int64(res.Iterations))
		span.SetAttr("mcrNodes", int64(g.NumNodes()))
		span.SetAttr("mcrArcs", int64(g.NumArcs()))
	}
	if opt.SkipCertify {
		return res, nil
	}
	return s.certifyLoop(ctx, g, res)
}

// trim computes the cyclic core of g into s.alive — the nodes from which a
// circuit is reachable, every one keeping at least one outgoing arc into
// the core — and reports whether any node survives.
func (s *Solver) trim(g *Graph) bool {
	g.ensureCSR()
	n := g.n
	s.alive = growBool(s.alive, n)
	s.outDeg = growInt32(s.outDeg, n)
	s.work = s.work[:0]
	for v := 0; v < n; v++ {
		s.alive[v] = true
		s.outDeg[v] = g.outDeg(v)
		if s.outDeg[v] == 0 {
			s.work = append(s.work, int32(v))
		}
	}
	// The in-adjacency is built lazily, only when something trims.
	inBuilt := false
	for len(s.work) > 0 {
		if !inBuilt {
			s.buildIn(g)
			inBuilt = true
		}
		v := int(s.work[len(s.work)-1])
		s.work = s.work[:len(s.work)-1]
		if !s.alive[v] {
			continue
		}
		s.alive[v] = false
		for _, ai := range s.inArcs[s.inStart[v]:s.inStart[v+1]] {
			u := g.arcs[ai].From
			if !s.alive[u] {
				continue
			}
			s.outDeg[u]--
			if s.outDeg[u] == 0 {
				s.work = append(s.work, int32(u))
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.alive[v] {
			return true
		}
	}
	return false
}

// buildIn builds the CSR in-adjacency of g into the solver's scratch.
func (s *Solver) buildIn(g *Graph) {
	n1 := g.n + 1
	if cap(s.inStart) < n1 {
		s.inStart = make([]int32, n1)
	} else {
		s.inStart = s.inStart[:n1]
		for i := range s.inStart {
			s.inStart[i] = 0
		}
	}
	for i := range g.arcs {
		s.inStart[g.arcs[i].To+1]++
	}
	for v := 0; v < g.n; v++ {
		s.inStart[v+1] += s.inStart[v]
	}
	if cap(s.inArcs) < len(g.arcs) {
		s.inArcs = make([]int32, len(g.arcs))
	} else {
		s.inArcs = s.inArcs[:len(g.arcs)]
	}
	for i := range g.arcs {
		to := g.arcs[i].To
		s.inArcs[s.inStart[to]] = int32(i)
		s.inStart[to]++
	}
	for v := g.n; v > 0; v-- {
		s.inStart[v] = s.inStart[v-1]
	}
	s.inStart[0] = 0
}

// compact copies the arcs of the cyclic core, in out-adjacency order,
// into the solver's arc stream and sets Howard's initial policy: for every
// alive node its first stream arc into heads[v] when there is one (see
// SolveWarmCtx), otherwise its first stream arc. Dead nodes get policy −1.
func (s *Solver) compact(g *Graph, heads []int32) {
	n := g.n
	m := len(g.arcs)
	s.arcStart = growInt32(s.arcStart, n+1)
	s.arcHead = growInt32(s.arcHead, m)
	s.arcL = growFloat64(s.arcL, m)
	s.arcHF = growFloat64(s.arcHF, m)
	s.arcOrig = growInt32(s.arcOrig, m)
	s.pol = growInt32(s.pol, n)
	k := int32(0)
	for v := 0; v < n; v++ {
		s.arcStart[v] = k
		s.pol[v] = -1
		if !s.alive[v] {
			continue
		}
		want := int32(-1)
		if v < len(heads) {
			want = heads[v]
		}
		for _, ai := range g.outArcs[g.outStart[v]:g.outStart[v+1]] {
			a := &g.arcs[ai]
			if !s.alive[a.To] {
				continue
			}
			if int32(a.To) == want && s.pol[v] < 0 {
				s.pol[v] = k
			}
			s.arcHead[k] = int32(a.To)
			s.arcL[k] = float64(a.L)
			s.arcHF[k] = a.HF
			s.arcOrig[k] = ai
			k++
		}
		if s.pol[v] < 0 {
			s.pol[v] = s.arcStart[v]
		}
	}
	s.arcStart[n] = k
}

// PolicyHeads appends to dst, for every node of the graph last solved, the
// head of its final Howard policy arc (−1 for nodes outside the cyclic
// core) and returns the extended slice: the heads argument of a warm
// SolveWarmCtx on a related graph. It is meaningful only after a
// resolution that did not fail with ErrNoCycle.
func (s *Solver) PolicyHeads(dst []int32) []int32 {
	for _, k := range s.pol {
		if k < 0 {
			dst = append(dst, -1)
		} else {
			dst = append(dst, s.arcHead[k])
		}
	}
	return dst
}

// howard runs max-ratio policy iteration over the compact arc stream,
// starting from the policy compact set, and returns an uncertified
// candidate result. It stops at the policy fixpoint: the first round in
// which no node's arc changes.
func (s *Solver) howard(ctx context.Context, g *Graph, opt Options) (Result, error) {
	maxRounds := opt.MaxHowardRounds
	if maxRounds <= 0 {
		maxRounds = DefaultHowardRounds
	}
	n := g.n
	s.lambda = growFloat64(s.lambda, n)
	s.val = growFloat64(s.val, n)
	start, head, arcL, arcHF := s.arcStart, s.arcHead, s.arcL, s.arcHF

	rounds := 0
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		rounds = round + 1
		if err := s.evaluatePolicy(g); err != nil {
			return Result{}, err
		}
		improved := false
		// Phase A: strict λ improvement.
		for v := 0; v < n; v++ {
			if !s.alive[v] {
				continue
			}
			cur := s.pol[v]
			curL := s.lambda[head[cur]]
			best, bestL := cur, curL
			for k := start[v]; k < start[v+1]; k++ {
				if lw := s.lambda[head[k]]; gtEps(lw, bestL) {
					best, bestL = k, lw
				}
			}
			if best != cur && gtEps(bestL, curL) {
				s.pol[v] = best
				improved = true
			}
		}
		if improved {
			continue
		}
		// Phase B: value improvement at equal λ. Only a changed arc counts
		// as an improvement: on a long circuit with large weights the
		// float closing defect can make a node "improve" onto the arc it
		// already holds, and re-evaluating an unchanged policy would
		// repeat the same round until maxRounds.
		for v := 0; v < n; v++ {
			if !s.alive[v] {
				continue
			}
			lv := s.lambda[v]
			cur := s.val[v]
			pol := s.pol[v]
			for k := start[v]; k < start[v+1]; k++ {
				w := head[k]
				if gtEps(lv, s.lambda[w]) || gtEps(s.lambda[w], lv) {
					continue
				}
				cand := arcL[k] - lv*arcHF[k] + s.val[w]
				if gtEps(cand, cur) {
					pol = k
					cur = cand
				}
			}
			if pol != s.pol[v] {
				s.pol[v] = pol
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if len(s.best) == 0 {
		return Result{}, ErrNoCycle
	}
	res := Result{
		CycleArcs:  append([]int(nil), s.best...),
		Iterations: rounds,
	}
	res.CycleNodes = g.nodesOfCycle(res.CycleArcs)
	ratio, err := g.CycleRatio(res.CycleArcs)
	if err != nil {
		return Result{}, err
	}
	res.Ratio = ratio
	return res, nil
}

// evaluatePolicy performs the value-determination step: it finds the
// circuits of the policy's functional graph, computes their exact ratios
// (reporting infeasible circuits as DeadlockError), assigns λ and a
// potential to every alive node, and leaves the best policy circuit in
// s.best.
func (s *Solver) evaluatePolicy(g *Graph) error {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current path
		black = 2 // finished
	)
	n := g.n
	s.color = growInt8(s.color, n)
	for i := range s.color {
		s.color[i] = white
	}
	s.best = s.best[:0]
	bestRatio := math.Inf(-1)
	head, arcL, arcHF := s.arcHead, s.arcL, s.arcHF
	for start := 0; start < n; start++ {
		if !s.alive[start] || s.color[start] != white {
			continue
		}
		s.order = s.order[:0]
		v := start
		for s.alive[v] && s.color[v] == white {
			s.color[v] = grey
			s.order = append(s.order, int32(v))
			v = int(head[s.pol[v]])
		}
		if s.color[v] == grey {
			// Found a new policy circuit: the suffix of order from v.
			first := 0
			for int(s.order[first]) != v {
				first++
			}
			cyc := s.order[first:]
			s.cycle = s.cycle[:0]
			for _, u := range cyc {
				s.cycle = append(s.cycle, int(s.arcOrig[s.pol[u]]))
			}
			l, h := g.CycleLH(s.cycle)
			if infeasibleCycle(l, h) {
				nodes := make([]int, len(cyc))
				for i, u := range cyc {
					nodes[i] = int(u)
				}
				return &DeadlockError{
					CycleArcs:  append([]int(nil), s.cycle...),
					CycleNodes: nodes,
					L:          l,
					H:          h,
				}
			}
			var lam float64
			if h.Sign() == 0 {
				// l == 0 too: degenerate circuit, constrains nothing.
				lam = math.Inf(-1)
			} else {
				lam = rat.FromInt(l).Div(h).Float()
			}
			if lam > bestRatio {
				bestRatio = lam
				s.best = append(s.best[:0], s.cycle...)
			}
			// Assign λ and potentials around the circuit: fix val of the
			// entry node to 0 and walk the circuit backwards so that
			// val[u] = L − λH + val[next] holds on every arc except the
			// closing one (whose defect is the circuit's zero-sum).
			for _, u := range cyc {
				s.lambda[u] = lam
			}
			s.val[v] = 0
			if !math.IsInf(lam, -1) {
				for i := len(cyc) - 1; i >= 1; i-- {
					k := s.pol[cyc[i]]
					s.val[cyc[i]] = arcL[k] - lam*arcHF[k] + s.val[head[k]]
				}
			} else {
				for _, u := range cyc {
					s.val[u] = 0
				}
			}
			for _, u := range cyc {
				s.color[u] = black
			}
		}
		// Unwind the tree part of the path in reverse, inheriting from the
		// policy successor (already black).
		for i := len(s.order) - 1; i >= 0; i-- {
			u := int(s.order[i])
			if s.color[u] == black {
				continue
			}
			k := s.pol[u]
			s.lambda[u] = s.lambda[head[k]]
			if math.IsInf(s.lambda[u], -1) {
				s.val[u] = 0
			} else {
				s.val[u] = arcL[k] - s.lambda[u]*arcHF[k] + s.val[head[k]]
			}
			s.color[u] = black
		}
	}
	if len(s.best) == 0 {
		return ErrNoCycle
	}
	return nil
}

func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

func growInt8(b []int8, n int) []int8 {
	if cap(b) < n {
		return make([]int8, n)
	}
	return b[:n]
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growFloat64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growRat(b []rat.Rat, n int) []rat.Rat {
	if cap(b) < n {
		return make([]rat.Rat, n)
	}
	return b[:n]
}
