package mcr

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"

	"kiter/internal/rat"
)

// fuzzGraph decodes a bi-valued graph from data. data[0] picks the node
// count n (1…256), data[1] the cost scale 10^(0…6), and bit 0 of data[2]
// makes the first n arcs the ring 0→1→…→n−1→0. Every following 4-byte
// record (from, to, cost, slack) adds one arc with L = cost·scale and
// H = π(to) − π(from) + (1+slack%16)/7 for a fixed rational node
// potential π. Every circuit's time is then the sum of its positive
// slacks, so no circuit is infeasible, while single arcs may have
// negative time, as in K-Iter's bi-valued graphs.
func fuzzGraph(data []byte) *Graph {
	if len(data) < 3 {
		return nil
	}
	n := 1 + int(data[0])
	scale := int64(1)
	for i := 0; i < int(data[1])%7; i++ {
		scale *= 10
	}
	ring := data[2]&1 == 1
	pot := func(v int) rat.Rat { return rat.NewRat(int64((v*37)%19-9), 5) }
	g := New(n)
	const maxArcs = 1024
	for i, rec := 0, data[3:]; len(rec) >= 4 && i < maxArcs; i, rec = i+1, rec[4:] {
		from, to := int(rec[0])%n, int(rec[1])%n
		if ring && i < n {
			from, to = i, (i+1)%n
		}
		h := pot(to).Sub(pot(from)).Add(rat.NewRat(1+int64(rec[3]%16), 7))
		g.AddArc(from, to, int64(rec[2])*scale, h)
	}
	return g
}

// longCircuitSeed is a ring of n arcs with costs around 10⁶ and
// fractional times: on such a circuit the float closing defect of
// Howard's value determination exceeds the comparison tolerance.
func longCircuitSeed(n int) []byte {
	data := []byte{byte(n - 1), 5, 1}
	for i := 0; i < n; i++ {
		data = append(data, 0, 0, byte(1+(i*i+3)%31), byte(i%5))
	}
	return data
}

// FuzzHoward holds Solve to SolveExact on random bi-valued graphs: the
// certified ratio matches the float-free solver's, Howard stops below its
// round cap, and a random initial policy certifies the same ratio.
func FuzzHoward(f *testing.F) {
	f.Add(longCircuitSeed(202))
	f.Add(longCircuitSeed(64))
	f.Add([]byte{3, 0, 0, 0, 1, 3, 1, 1, 2, 5, 2, 2, 0, 1, 3, 1, 3, 7, 0, 3, 0, 2, 9})
	f.Add([]byte{7, 3, 1, 0, 0, 4, 0, 0, 0, 9, 1, 0, 0, 2, 2, 5, 3, 200, 4, 6, 1, 30, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		exact, errExact := SolveExact(g)
		s := NewSolver()
		res, err := s.Solve(g, Options{})
		if errors.Is(errExact, ErrNoCycle) {
			if !errors.Is(err, ErrNoCycle) {
				t.Fatalf("SolveExact finds no circuit, Solve returns %v", err)
			}
			return
		}
		if errExact != nil || err != nil {
			t.Fatalf("SolveExact: %v, Solve: %v", errExact, err)
		}
		if res.Iterations >= DefaultHowardRounds {
			t.Fatalf("Howard ran into its cap of %d rounds", res.Iterations)
		}
		if !res.Certified || res.Ratio.Cmp(exact.Ratio) != 0 {
			t.Fatalf("Solve ratio %s (certified %v), SolveExact %s", res.Ratio, res.Certified, exact.Ratio)
		}
		if r, err := g.CycleRatio(res.CycleArcs); err != nil || r.Cmp(res.Ratio) != 0 {
			t.Fatalf("reported circuit has ratio %s (%v), want %s", r, err, res.Ratio)
		}

		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		heads := make([]int32, g.NumNodes())
		for v := range heads {
			heads[v] = int32(rng.Intn(g.NumNodes()+1) - 1)
		}
		warm, err := s.SolveWarmCtx(context.Background(), g, Options{}, heads)
		if err != nil {
			t.Fatalf("warm Solve: %v", err)
		}
		if warm.Iterations >= DefaultHowardRounds {
			t.Fatalf("warm Howard ran into its cap of %d rounds", warm.Iterations)
		}
		if !warm.Certified || warm.Ratio.Cmp(exact.Ratio) != 0 {
			t.Fatalf("warm ratio %s (certified %v), SolveExact %s", warm.Ratio, warm.Certified, exact.Ratio)
		}
	})
}
