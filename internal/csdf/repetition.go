package csdf

import (
	"errors"
	"fmt"
	"math/big"

	"kiter/internal/rat"
)

// ErrInconsistent is returned when no repetition vector exists, i.e. the
// balance equations qt·ib = qt′·ob admit no positive integer solution.
var ErrInconsistent = errors.New("csdf: graph is not consistent (no repetition vector)")

// ErrRepetitionOverflow is returned by RepetitionVector when the smallest
// repetition vector does not fit in int64 components.
var ErrRepetitionOverflow = errors.New("csdf: repetition vector exceeds int64")

// repetition computes the smallest positive integer repetition vector q
// such that qt·ib = qt′·ob for every buffer b = (t, t′) (Section 2.2), as
// integral rat.Rat values. Each weakly-connected component is normalized
// independently to its smallest integer solution.
//
// The arithmetic is exact, immune to the integer overflow the paper
// reports fixing in SDF3's implementation: rat.Rat holds reduced int64
// fractions without allocating and promotes itself to math/big when a
// value leaves that range, so the common graph pays no big-int cost and
// the rare huge one still gets the exact answer.
func (g *Graph) repetition() ([]rat.Rat, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.tasks)
	// Undirected buffer adjacency in CSR form: the buffers incident to
	// task t, in index order, are inc[start[t]:start[t+1]].
	start := make([]int32, n+1)
	for i := range g.buffers {
		b := &g.buffers[i]
		start[b.Src+1]++
		if b.Dst != b.Src {
			start[b.Dst+1]++
		}
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	inc := make([]int32, start[n])
	next := make([]int32, n)
	copy(next, start[:n])
	for i := range g.buffers {
		b := &g.buffers[i]
		inc[next[b.Src]] = int32(i)
		next[b.Src]++
		if b.Dst != b.Src {
			inc[next[b.Dst]] = int32(i)
			next[b.Dst]++
		}
	}

	// Fractional solution per component via BFS over the adjacency: fixing
	// f(root)=1, each buffer b=(t,t′) forces f(t′) = f(t)·ib/ob. Every
	// fraction is positive, so zero marks an unvisited task. The BFS order
	// lists each component as one contiguous run, whose bounds compStart
	// records.
	frac := make([]rat.Rat, n)
	order := next[:0] // reuses next's storage: the fill cursors are spent
	var compStart []int
	for root := 0; root < n; root++ {
		if !frac[root].IsZero() {
			continue
		}
		compStart = append(compStart, len(order))
		frac[root] = rat.FromInt(1)
		order = append(order, int32(root))
		for head := compStart[len(compStart)-1]; head < len(order); head++ {
			u := TaskID(order[head])
			for _, bi := range inc[start[u]:start[u+1]] {
				b := &g.buffers[bi]
				ib, ob := b.TotalIn(), b.TotalOut()
				// Self-loop: requires ib == ob, no propagation.
				if b.Src == b.Dst {
					if ib != ob {
						return nil, fmt.Errorf("%w: self-loop buffer %d has ib=%d ≠ ob=%d", ErrInconsistent, bi, ib, ob)
					}
					continue
				}
				var want rat.Rat
				to := b.Dst
				if b.Src == u {
					want = frac[u].Mul(rat.NewRat(ib, ob)) // f(dst) = f(src)·ib/ob
				} else {
					to = b.Src
					want = frac[u].Mul(rat.NewRat(ob, ib))
				}
				if frac[to].IsZero() {
					frac[to] = want
					order = append(order, int32(to))
				} else if !frac[to].Equal(want) {
					return nil, fmt.Errorf("%w: cycle through buffer %d imbalanced", ErrInconsistent, bi)
				}
			}
		}
	}
	// Re-check every buffer (BFS tree covers all, but self-loops and
	// parallel buffers deserve an explicit pass).
	for i := range g.buffers {
		b := &g.buffers[i]
		lhs := frac[b.Src].Mul(rat.FromInt(b.TotalIn()))
		rhs := frac[b.Dst].Mul(rat.FromInt(b.TotalOut()))
		if !lhs.Equal(rhs) {
			return nil, fmt.Errorf("%w: buffer %d imbalanced", ErrInconsistent, i)
		}
	}
	// Scale each component to its smallest positive integer vector:
	// divide by the rational gcd of its fractions, gcd(numerators) over
	// lcm(denominators).
	compStart = append(compStart, n)
	for c := 0; c+1 < len(compStart); c++ {
		run := order[compStart[c]:compStart[c+1]]
		var scale rat.Rat
		for _, t := range run {
			scale = rat.GcdRat(scale, frac[t])
		}
		for _, t := range run {
			frac[t] = frac[t].Div(scale)
		}
	}
	return frac, nil
}

// RepetitionVectorBig computes the smallest positive integer repetition
// vector q such that qt·ib = qt′·ob for every buffer b = (t, t′)
// (Section 2.2), with each weakly-connected component normalized
// independently. The components are exact whatever their size.
func (g *Graph) RepetitionVectorBig() ([]*big.Int, error) {
	qr, err := g.repetition()
	if err != nil {
		return nil, err
	}
	q := make([]*big.Int, len(qr))
	for i, v := range qr {
		q[i] = v.Num() // v is integral
	}
	return q, nil
}

// RepetitionVector computes the smallest repetition vector as int64
// components, returning ErrRepetitionOverflow if any component does not
// fit. Most callers should use this; RepetitionVectorBig is the exact
// fallback.
func (g *Graph) RepetitionVector() ([]int64, error) {
	qr, err := g.repetition()
	if err != nil {
		return nil, err
	}
	q := make([]int64, len(qr))
	for i, v := range qr {
		var ok bool
		if q[i], ok = v.Int64(); !ok {
			return nil, ErrRepetitionOverflow
		}
	}
	return q, nil
}

// Consistent reports whether the graph admits a repetition vector.
func (g *Graph) Consistent() bool {
	_, err := g.repetition()
	return err == nil
}

// SumRepetition returns Σt qt as a big.Int (the complexity measure used in
// Tables 1 and 2 of the paper).
func (g *Graph) SumRepetition() (*big.Int, error) {
	qb, err := g.RepetitionVectorBig()
	if err != nil {
		return nil, err
	}
	s := new(big.Int)
	for _, v := range qb {
		s.Add(s, v)
	}
	return s, nil
}
