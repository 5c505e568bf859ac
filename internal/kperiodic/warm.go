package kperiodic

import "kiter/internal/mcr"

// warmStart carries Howard's final policy from one K-Iter round to the
// next. Between rounds K only grows (every new Kt is a multiple of the
// old one), so each node ⟨t, p̃⟩ of the new bi-valued graph has a
// predecessor ⟨t, ((p̃−1) mod Kt·ϕt)+1⟩ in the old graph. The new node
// starts on its first arc into the image of the predecessor's policy head,
// the node with the same expanded phase index in the head's task region,
// and on its first arc when it has none. Howard converges from any initial
// policy and K-Iter certifies its final answer, so the warm start saves
// policy rounds without changing any period or optimality verdict; among
// critical circuits of exactly equal ratio it may report another one. A
// warmStart lives in the pooled arena, so its arrays are recycled across
// solves like the arc arena's.
type warmStart struct {
	heads  []int32 // kept policy heads, in the kept round's node numbering
	offset []int   // kept round's task region offsets
	taskOf []int32 // kept round's node → task
	hint   []int32 // heads mapped onto the current round's nodes
}

// reset forgets the kept policy, so the next resolution starts cold.
func (w *warmStart) reset() { w.heads = w.heads[:0] }

// keep records the policy s ended its latest resolution of b.mg with, so
// the next round's resolve can start from it.
func (w *warmStart) keep(b *builder, s *mcr.Solver) {
	w.heads = s.PolicyHeads(w.heads[:0])
	w.offset = append(w.offset[:0], b.offset...)
}

// mapped maps the kept policy onto b's current layout as the heads
// argument of mcr.Solver.SolveWarmCtx; nil when w is nil or keeps no
// policy.
func (w *warmStart) mapped(b *builder) []int32 {
	if w == nil || len(w.heads) == 0 {
		return nil
	}
	nTasks := len(b.offset) - 1
	if cap(w.taskOf) < len(w.heads) {
		w.taskOf = make([]int32, len(w.heads))
	}
	w.taskOf = w.taskOf[:len(w.heads)]
	for t := 0; t < nTasks; t++ {
		for v := w.offset[t]; v < w.offset[t+1]; v++ {
			w.taskOf[v] = int32(t)
		}
	}
	w.hint = w.hint[:0]
	for t := 0; t < nTasks; t++ {
		oldBase, oldN := w.offset[t], w.offset[t+1]-w.offset[t]
		for l, j := 0, 0; l < b.offset[t+1]-b.offset[t]; l++ {
			h := w.heads[oldBase+j]
			if h >= 0 {
				u := w.taskOf[h]
				local := int(h) - w.offset[u]
				if local < b.offset[u+1]-b.offset[u] {
					h = int32(b.offset[u] + local)
				} else {
					h = -1
				}
			}
			w.hint = append(w.hint, h)
			if j++; j == oldN {
				j = 0
			}
		}
	}
	return w.hint
}
