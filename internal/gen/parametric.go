package gen

import (
	"kiter/internal/csdf"
)

// VideoPipeline returns the H.264-style encoder front end of
// examples/videopipeline: macroblock-phased motion estimation, a
// reference-frame feedback loop and a rate-control credit loop. It is the
// canonical base graph for scenario sweeps — every named task and buffer is
// a plausible design parameter (search duration, reference window, credit
// tokens).
func VideoPipeline() *csdf.Graph {
	const mbPerFrame = 16
	g := csdf.NewGraph("video-encoder")
	camera := g.AddSDFTask("camera", 10)
	me := g.AddTask("motion-est", []int64{2, 6})
	tq := g.AddSDFTask("transform", 3)
	ec := g.AddSDFTask("entropy", 20)
	recon := g.AddSDFTask("recon", 4)
	g.AddBuffer("frames", camera, me, []int64{mbPerFrame}, []int64{1, 1}, 0)
	g.AddBuffer("mbs", me, tq, []int64{1, 1}, []int64{1}, 0)
	g.AddBuffer("coeffs", tq, ec, []int64{1}, []int64{mbPerFrame}, 0)
	g.AddBuffer("to-recon", tq, recon, []int64{1}, []int64{1}, 0)
	g.AddBuffer("reference", recon, me, []int64{1}, []int64{0, 2}, mbPerFrame)
	g.AddBuffer("rate-ctl", ec, camera, []int64{1}, []int64{1}, 2)
	return g
}

// ColdVariant returns a copy of g with every phase duration multiplied by
// scale, then delta0 added to the first phase of task 0 and delta1 to the
// first phase of task 1 (when g has one). A stream of such variants is
// what a design-space exploration sends a throughput service: every one
// is a cache miss, and large durations stress the float fast path of the
// MCRP solver.
func ColdVariant(g *csdf.Graph, scale, delta0, delta1 int64) *csdf.Graph {
	c := g.Clone()
	for _, t := range c.Tasks() {
		for p := range t.Durations {
			t.Durations[p] *= scale
		}
	}
	c.Task(0).Durations[0] += delta0
	if c.NumTasks() > 1 {
		c.Task(1).Durations[0] += delta1
	}
	return c
}
