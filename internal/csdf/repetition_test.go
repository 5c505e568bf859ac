package csdf_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
)

// oracleRepetitionBig is the math/big repetition vector the package used
// before it moved to rat.Rat, kept verbatim as a differential oracle: BFS
// fractions in big.Rat, a balance re-check, then per-component lcm/gcd
// scaling in big.Int.
func oracleRepetitionBig(g *csdf.Graph) ([]*big.Int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	bufs := g.Buffers()
	frac := make([]*big.Rat, n)
	adj := make([][]int, n)
	for i := range bufs {
		b := &bufs[i]
		adj[b.Src] = append(adj[b.Src], i)
		if b.Dst != b.Src {
			adj[b.Dst] = append(adj[b.Dst], i)
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var compRoots []csdf.TaskID
	queue := make([]csdf.TaskID, 0, n)
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		c := len(compRoots)
		compRoots = append(compRoots, csdf.TaskID(root))
		comp[root] = c
		frac[root] = big.NewRat(1, 1)
		queue = append(queue[:0], csdf.TaskID(root))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, bi := range adj[u] {
				b := &bufs[bi]
				ib, ob := b.TotalIn(), b.TotalOut()
				if b.Src == b.Dst {
					if ib != ob {
						return nil, fmt.Errorf("%w: self-loop buffer %d has ib=%d ≠ ob=%d", csdf.ErrInconsistent, bi, ib, ob)
					}
					continue
				}
				var from, to csdf.TaskID
				var ratio *big.Rat
				if b.Src == u {
					from, to = b.Src, b.Dst
					ratio = big.NewRat(ib, ob)
				} else {
					from, to = b.Dst, b.Src
					ratio = big.NewRat(ob, ib)
				}
				want := new(big.Rat).Mul(frac[from], ratio)
				if frac[to] == nil {
					frac[to] = want
					comp[to] = c
					queue = append(queue, to)
				} else if frac[to].Cmp(want) != 0 {
					return nil, fmt.Errorf("%w: cycle through buffer %d imbalanced", csdf.ErrInconsistent, bi)
				}
			}
		}
	}
	for i := range bufs {
		b := &bufs[i]
		lhs := new(big.Rat).Mul(frac[b.Src], big.NewRat(b.TotalIn(), 1))
		rhs := new(big.Rat).Mul(frac[b.Dst], big.NewRat(b.TotalOut(), 1))
		if lhs.Cmp(rhs) != 0 {
			return nil, fmt.Errorf("%w: buffer %d imbalanced", csdf.ErrInconsistent, i)
		}
	}
	q := make([]*big.Int, n)
	for c := range compRoots {
		lcmDen := big.NewInt(1)
		for t := 0; t < n; t++ {
			if comp[t] != c {
				continue
			}
			d := frac[t].Denom()
			gcd := new(big.Int).GCD(nil, nil, lcmDen, d)
			lcmDen.Div(lcmDen, gcd).Mul(lcmDen, d)
		}
		gcdNum := new(big.Int)
		for t := 0; t < n; t++ {
			if comp[t] != c {
				continue
			}
			v := new(big.Rat).Mul(frac[t], new(big.Rat).SetInt(lcmDen))
			q[t] = new(big.Int).Set(v.Num())
			gcdNum.GCD(nil, nil, gcdNum, q[t])
		}
		if gcdNum.Sign() > 0 && gcdNum.Cmp(big.NewInt(1)) != 0 {
			for t := 0; t < n; t++ {
				if comp[t] == c {
					q[t].Div(q[t], gcdNum)
				}
			}
		}
	}
	return q, nil
}

// oracleRepetition is the oracle's int64 view, as RepetitionVector
// reported it.
func oracleRepetition(g *csdf.Graph) ([]int64, error) {
	qb, err := oracleRepetitionBig(g)
	if err != nil {
		return nil, err
	}
	q := make([]int64, len(qb))
	for i, v := range qb {
		if !v.IsInt64() {
			return nil, csdf.ErrRepetitionOverflow
		}
		q[i] = v.Int64()
	}
	return q, nil
}

// checkAgainstOracle compares every repetition entry point with the
// oracle: same error text (hence kind) or the same vector.
func checkAgainstOracle(t *testing.T, g *csdf.Graph) {
	t.Helper()
	sameErr := func(what string, got, want error) bool {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s: %s error = %v, oracle %v", g.Name, what, got, want)
		}
		return got == nil
	}
	wantBig, wantErr := oracleRepetitionBig(g)
	gotBig, err := g.RepetitionVectorBig()
	if sameErr("RepetitionVectorBig", err, wantErr) {
		for i := range wantBig {
			if gotBig[i].Cmp(wantBig[i]) != 0 {
				t.Fatalf("%s: RepetitionVectorBig = %v, oracle %v", g.Name, gotBig, wantBig)
			}
		}
	}
	want, wantErr := oracleRepetition(g)
	got, err := g.RepetitionVector()
	if sameErr("RepetitionVector", err, wantErr) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: RepetitionVector = %v, oracle %v", g.Name, got, want)
			}
		}
	}
	if g.Consistent() != (wantBig != nil) {
		t.Fatalf("%s: Consistent() = %v, oracle error %v", g.Name, g.Consistent(), wantErr)
	}
	if wantBig != nil {
		sum, err := g.SumRepetition()
		want := new(big.Int)
		for _, v := range wantBig {
			want.Add(want, v)
		}
		if err != nil || sum.Cmp(want) != 0 {
			t.Fatalf("%s: SumRepetition = %v, %v; oracle %v", g.Name, sum, err, want)
		}
	}
}

// randomGraph builds an arbitrary graph, usually inconsistent once a
// cycle closes: random phases, rates and endpoints, self-loops included.
func randomGraph(rng *rand.Rand, i int) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("random-%d", i))
	n := 1 + rng.Intn(6)
	for t := 0; t < n; t++ {
		ds := make([]int64, 1+rng.Intn(3))
		for p := range ds {
			ds[p] = rng.Int63n(5)
		}
		g.AddTask(fmt.Sprintf("t%d", t), ds)
	}
	rates := func(phases int) []int64 {
		rs := make([]int64, phases)
		for p := range rs {
			rs[p] = rng.Int63n(4)
		}
		rs[rng.Intn(phases)]++ // keep the total positive
		return rs
	}
	for b := rng.Intn(2 * n); b > 0; b-- {
		src, dst := csdf.TaskID(rng.Intn(n)), csdf.TaskID(rng.Intn(n))
		g.AddBuffer("", src, dst, rates(g.Task(src).Phases()), rates(g.Task(dst).Phases()), rng.Int63n(3))
	}
	return g
}

// perturbed copies g with one buffer's first production rate bumped:
// inconsistent when the buffer closes a cycle, still consistent on a
// tree edge.
func perturbed(g *csdf.Graph, rng *rand.Rand) *csdf.Graph {
	out := csdf.NewGraph(g.Name + "-perturbed")
	for _, t := range g.Tasks() {
		out.AddTask(t.Name, t.Durations)
	}
	victim := rng.Intn(g.NumBuffers())
	for i, b := range g.Buffers() {
		in := append([]int64(nil), b.In...)
		if i == victim {
			in[0] += 1 + rng.Int63n(3)
		}
		out.AddBuffer(b.Name, b.Src, b.Dst, in, b.Out, b.Initial)
	}
	return out
}

// overflowChain is a chain whose buffers each consume 10⁴ tokens per
// token produced: q0 = 10^(4·links), past int64 for links ≥ 5.
func overflowChain(links int) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("overflow-%d", links))
	prev := g.AddSDFTask("t0", 1)
	for i := 1; i <= links; i++ {
		next := g.AddSDFTask(fmt.Sprintf("t%d", i), 1)
		g.AddSDFBuffer("", prev, next, 1, 10000, 0)
		prev = next
	}
	return g
}

var (
	poolOnce  sync.Once
	poolGs    []*csdf.Graph
	poolGsErr error
)

// suitePool returns the paper-suite graphs the performance lab serves:
// ActualDSP, the BlackScholes/JPEG2000/Pdetect stand-ins, the K-Iter
// chains, four LgTransient graphs and the first MimicDSP and LgHSDF
// graphs.
func suitePool() ([]*csdf.Graph, error) {
	poolOnce.Do(func() {
		gs := gen.ActualDSP().Graphs
		for _, s := range gen.IndustrialSpecs() {
			if s.Name != "BlackScholes" && s.Name != "JPEG2000" && s.Name != "Pdetect" {
				continue
			}
			g, err := gen.Industrial(s)
			if err != nil {
				poolGsErr = err
				return
			}
			gs = append(gs, g)
		}
		gs = append(gs, gen.KIterChain(4), gen.KIterChain(8), gen.KIterChain(16))
		gs = append(gs, gen.LgTransient(4, 0).Graphs...)
		gs = append(gs, gen.MimicDSP(25, 1).Graphs...)
		poolGs = append(gs, gen.LgHSDF(24, 1).Graphs...)
	})
	return poolGs, poolGsErr
}

func TestRepetitionVectorMatchesBig(t *testing.T) {
	t.Run("suites", func(t *testing.T) {
		pool, err := suitePool()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range pool {
			checkAgainstOracle(t, g)
		}
		specs := gen.IndustrialSpecs()
		if !testing.Short() {
			specs = append(specs, gen.SyntheticSpecs()...)
		}
		for _, s := range specs {
			g, err := gen.Industrial(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			checkAgainstOracle(t, g)
		}
	})
	t.Run("fixtures", func(t *testing.T) {
		fig1, _ := gen.Figure1()
		for _, g := range []*csdf.Graph{
			fig1, gen.Figure2(), gen.TwoTaskChain(2, 3), gen.HSDFRing(5, []int64{1, 2, 3, 4, 5}, 2),
			gen.UpDownSampler(3, 7), gen.SampleRateConverter(), gen.CyclicCSDF(),
			gen.DeadlockedRing(), gen.MultiRateCycle(), gen.VideoPipeline(),
			csdf.NewGraph("empty"),
		} {
			checkAgainstOracle(t, g)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for seed := int64(0); seed < 60; seed++ {
			g, err := gen.RandomSmall(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, g)
			checkAgainstOracle(t, perturbed(g, rng))
		}
		consistent := 0
		for i := 0; i < 2000; i++ {
			g := randomGraph(rng, i)
			if g.Consistent() {
				consistent++
			}
			checkAgainstOracle(t, g)
		}
		if consistent == 0 || consistent == 2000 {
			t.Fatalf("random graphs: %d of 2000 consistent, want a mix", consistent)
		}
	})
	t.Run("self-loops", func(t *testing.T) {
		g := csdf.NewGraph("balanced-self-loop")
		a := g.AddTask("a", []int64{1, 2})
		b := g.AddSDFTask("b", 1)
		g.AddBuffer("aa", a, a, []int64{1, 1}, []int64{0, 2}, 2)
		g.AddBuffer("ab", a, b, []int64{3, 0}, []int64{2}, 0)
		checkAgainstOracle(t, g)
		g.AddSDFBuffer("bb", b, b, 2, 3, 5) // unbalanced
		checkAgainstOracle(t, g)
		if _, err := g.RepetitionVector(); err == nil {
			t.Fatal("unbalanced self-loop accepted")
		}
	})
	t.Run("multi-component", func(t *testing.T) {
		g := csdf.NewGraph("components")
		for c := 0; c < 4; c++ {
			x := g.AddSDFTask(fmt.Sprintf("x%d", c), 1)
			y := g.AddSDFTask(fmt.Sprintf("y%d", c), 1)
			z := g.AddSDFTask(fmt.Sprintf("z%d", c), 1)
			g.AddSDFBuffer("", x, y, int64(2+c), int64(3+2*c), 0)
			g.AddSDFBuffer("", y, z, int64(5+c), 7, 0)
			g.AddSDFBuffer("", z, x, 7*int64(3+2*c), int64(2+c)*int64(5+c), 9)
		}
		g.AddSDFTask("isolated", 1)
		checkAgainstOracle(t, g)
	})
	t.Run("overflow", func(t *testing.T) {
		for links := 1; links <= 7; links++ {
			checkAgainstOracle(t, overflowChain(links))
		}
		g := overflowChain(5)
		if _, err := g.RepetitionVector(); err != csdf.ErrRepetitionOverflow {
			t.Fatalf("RepetitionVector error = %v, want ErrRepetitionOverflow", err)
		}
		q, err := g.RepetitionVectorBig()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := new(big.Int).SetString("100000000000000000000", 10); q[0].Cmp(want) != 0 || q[5].Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("RepetitionVectorBig = %v, want q0 = 10^20, q5 = 1", q)
		}
		// Large coprime rates whose fractions fit int64 but whose lcm of
		// denominators does not.
		g = csdf.NewGraph("coprime-fan")
		hub := g.AddSDFTask("hub", 1)
		for i, r := range [][2]int64{{1 << 40, 999999999989}, {3, 1000000000039}, {1000000007, 1 << 33}} {
			leaf := g.AddSDFTask(fmt.Sprintf("leaf%d", i), 1)
			g.AddSDFBuffer("", hub, leaf, r[0], r[1], 0)
		}
		checkAgainstOracle(t, g)
	})
}

func BenchmarkRepetitionVector(b *testing.B) {
	pool, err := suitePool()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pool[i%len(pool)].RepetitionVector(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigOracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleRepetition(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
