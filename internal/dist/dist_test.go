package dist

import (
	"math"
	"testing"

	"lowsensing/prng"
)

const sampleN = 200_000

// moments draws n samples and returns their sample mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum float64
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw()
		sum += xs[i]
	}
	mean = sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
}

// checkMoments verifies sample moments against exact ones: the mean within
// 5 standard errors, the variance within 5% relative (generous enough that
// the test is deterministic-given-seed yet would catch a wrong sampler).
func checkMoments(t *testing.T, name string, gotMean, gotVar, wantMean, wantVar float64) {
	t.Helper()
	se := math.Sqrt(wantVar / sampleN)
	if math.Abs(gotMean-wantMean) > 5*se {
		t.Errorf("%s: mean = %v, want %v ± %v", name, gotMean, wantMean, 5*se)
	}
	if math.Abs(gotVar-wantVar) > 0.05*wantVar {
		t.Errorf("%s: variance = %v, want %v ± 5%%", name, gotVar, wantVar)
	}
}

func TestGeometricMoments(t *testing.T) {
	for _, p := range []float64{0.9, 0.5, 0.1, 1e-3} {
		rng, g := prng.New(1), NewGeometric(p)
		mean, variance := moments(sampleN, func() float64 { return float64(g.Draw(rng)) })
		checkMoments(t, "Geometric", mean, variance, 1/p, (1-p)/(p*p))
	}
}

func TestGeometricPMF(t *testing.T) {
	// Empirical pmf of the first few support points must match p(1-p)^(k-1).
	const p = 0.4
	rng, g := prng.New(7), NewGeometric(p)
	counts := make([]int, 6)
	for i := 0; i < sampleN; i++ {
		if x := g.Draw(rng); x >= 1 && int(x) <= len(counts) {
			counts[x-1]++
		}
	}
	for k, c := range counts {
		want := p * math.Pow(1-p, float64(k))
		got := float64(c) / sampleN
		se := math.Sqrt(want * (1 - want) / sampleN)
		if math.Abs(got-want) > 6*se {
			t.Errorf("P[X=%d] = %v, want %v ± %v", k+1, got, want, 6*se)
		}
	}
}

func TestGeometricEdges(t *testing.T) {
	rng := prng.New(1)
	for _, p := range []float64{1, 1.5} {
		g := NewGeometric(p)
		for i := 0; i < 100; i++ {
			if x := g.Draw(rng); x != 1 {
				t.Fatalf("Geometric(p=%v) = %d, want 1", p, x)
			}
		}
	}
	if *rng != *prng.New(1) {
		t.Fatal("Geometric(p >= 1) consumed a draw")
	}
	// Tiny p must produce huge but bounded, positive gaps.
	tiny := NewGeometric(1e-18)
	for i := 0; i < 100; i++ {
		x := tiny.Draw(rng)
		if x < 1 || x > MaxGeometric {
			t.Fatalf("Geometric(p=1e-18) = %d out of [1, 2^62]", x)
		}
	}
	for _, p := range []float64{0, -0.5, math.NaN()} {
		g := NewGeometric(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(p=%v) did not panic", p)
				}
			}()
			g.Draw(rng)
		}()
	}
}

// refGeometric is the sampler before the comparison path: the inverse CDF
// ceil(ln U / ln(1-p)) for every draw, clamped to [1, MaxGeometric].
func refGeometric(rng *prng.Source, p float64) int64 {
	if p >= 1 {
		return 1
	}
	return refInvert(p, rng.Float64Open())
}

func refInvert(p, u float64) int64 {
	g := math.Ceil(math.Log(u) / math.Log1p(-p))
	if g < 1 {
		return 1
	}
	if g >= float64(MaxGeometric) {
		return MaxGeometric
	}
	return int64(g)
}

// geometricTestPs returns the probabilities the differential checks use:
// the values the workloads draw with (LSB's access probability at WMin = 8,
// 0.1, 2^-k), the extremes, and p log-uniform over (2^-60, 1/2] together
// with 1-p log-uniform over [2^-53, 1/2).
func geometricTestPs(rng *prng.Source, n int) []float64 {
	ps := []float64{0.5 * math.Pow(math.Log(8), 3) / 8, 0.1, 0.01, 1e-3, 1e-6, 1e-18, 1 - 1e-16, 1 - 0x1p-53, 0x1p-60, math.SmallestNonzeroFloat64}
	for k := 1; k <= 40; k++ {
		ps = append(ps, math.Ldexp(1, -k))
	}
	for i := 0; i < n; i++ {
		ps = append(ps, math.Exp2(-1-59*rng.Float64()), 1-math.Exp2(-1-52*rng.Float64()))
	}
	return ps
}

// TestGeometricShortGapsExact is the differential check of the comparison
// path against the inverse CDF it replaces: for every p, uniforms drawn at
// random and uniforms placed 2^-30 to 2^-54 (relative) either side of each
// cut point (1-p)^k, k = 1..4, must map to the same gap; whole draws from a
// source must return the same gap and leave the source in the same state,
// including the draw-free p = 1.
func TestGeometricShortGapsExact(t *testing.T) {
	rng := prng.New(11)
	for _, p := range append(geometricTestPs(rng, 500), 1) {
		g := NewGeometric(p)
		a, b := prng.New(uint64(math.Float64bits(p))), prng.New(uint64(math.Float64bits(p)))
		for i := 0; i < 2000; i++ {
			if x, want := g.Draw(a), refGeometric(b, p); x != want || *a != *b {
				t.Fatalf("p=%v draw %d: Draw = %d, reference %d, sources equal: %v", p, i, x, want, *a == *b)
			}
		}
		if p == 1 {
			if *a != *prng.New(uint64(math.Float64bits(p))) {
				t.Fatal("Geometric(p=1) consumed a draw")
			}
			continue
		}
		check := func(u float64) {
			if !(u > 0 && u < 1) {
				return
			}
			if x, want := g.invert(u), refInvert(p, u); x != want {
				t.Fatalf("p=%v u=%v (%x): invert = %d, reference %d", p, u, math.Float64bits(u), x, want)
			}
		}
		q := 1 - p
		cut := q
		for k := 1; k <= 4; k++ {
			for j := 30; j <= 54; j++ {
				check(cut * (1 + math.Ldexp(1, -j)))
				check(cut * (1 - math.Ldexp(1, -j)))
			}
			check(cut)
			check(math.Nextafter(cut, 0))
			check(math.Nextafter(cut, 1))
			check(cut * bandHi)
			check(cut * bandLo)
			cut *= q
		}
		for i := 0; i < 200; i++ {
			check(rng.Float64Open())
		}
	}
}

// FuzzGeometricDraw checks the comparison path against the inverse CDF at
// arbitrary (p, u), both folded into (0, 1).
func FuzzGeometricDraw(f *testing.F) {
	f.Add(0.5623, 0.5)
	f.Add(0.1, 0.9)
	f.Add(0.5, 0.25)
	f.Add(1-0x1p-53, 0x1p-53)
	f.Add(0x1p-60, 1-0x1p-40)
	f.Fuzz(func(t *testing.T, p, u float64) {
		p, u = math.Abs(p), math.Abs(u)
		p -= math.Floor(p)
		u -= math.Floor(u)
		if !(p > 0 && p < 1 && u > 0 && u < 1) {
			t.Skip()
		}
		if x, want := NewGeometric(p).invert(u), refInvert(p, u); x != want {
			t.Fatalf("p=%v u=%v: invert = %d, reference %d", p, u, x, want)
		}
	})
}

// BenchmarkGeometric draws at LSB's access probability at WMin = 8, where
// almost every gap is decided by comparison, and at p = 0.01, where almost
// every gap takes the logarithm.
func BenchmarkGeometric(b *testing.B) {
	for _, c := range []struct {
		name string
		p    float64
	}{{"p=0.56", 0.56}, {"p=0.01", 0.01}} {
		b.Run(c.name, func(b *testing.B) {
			rng, g := prng.New(1), NewGeometric(c.p)
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += g.Draw(rng)
			}
			_ = sink
		})
	}
}

func TestPoissonMoments(t *testing.T) {
	// Spans both the Knuth branch (λ < 10) and the PTRS branch (λ >= 10).
	for _, lambda := range []float64{0.5, 3, 9.5, 12, 50, 400} {
		rng, p := prng.New(2), NewPoisson(lambda)
		mean, variance := moments(sampleN, func() float64 { return float64(p.Draw(rng)) })
		checkMoments(t, "Poisson", mean, variance, lambda, lambda)
	}
}

func TestPoissonEdges(t *testing.T) {
	rng, zero := prng.New(1), NewPoisson(0)
	for i := 0; i < 100; i++ {
		if k := zero.Draw(rng); k != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", k)
		}
	}
	for _, lambda := range []float64{-1, math.NaN(), 1 << 53} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoisson(λ=%v) did not panic", lambda)
				}
			}()
			NewPoisson(lambda)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Poisson(0).DrawPositive did not panic")
			}
		}()
		zero.DrawPositive(rng)
	}()
}

// TestPoissonDrawPositivePMF checks the zero-truncated sampler on both
// sides of the inversion cutover: each count's frequency against
// λ^k / (k! (e^λ - 1)), and, at and above the cutover, the exact draws and
// end state of rejecting zeros from Draw. Rejection at the cutover takes
// about 1024 draws per result, so that case draws fewer results.
func TestPoissonDrawPositivePMF(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		n      int
	}{{1e-12, sampleN}, {1e-4, sampleN}, {0x1p-11, sampleN}, {0x1p-10, 2000}, {0.4, sampleN}, {3, sampleN}} {
		lambda, p := c.lambda, NewPoisson(c.lambda)
		rng, ref := prng.New(5), prng.New(5)
		counts := make([]int, 8)
		for i := 0; i < c.n; i++ {
			k := p.DrawPositive(rng)
			if k < 1 {
				t.Fatalf("λ=%v: DrawPositive = %d, want >= 1", lambda, k)
			}
			if k <= int64(len(counts)) {
				counts[k-1]++
			}
			if lambda >= poissonInvertPositive {
				want := int64(0)
				for want == 0 {
					want = p.Draw(ref)
				}
				if k != want || *rng != *ref {
					t.Fatalf("λ=%v draw %d: DrawPositive = %d, rejection %d, sources equal: %v", lambda, i, k, want, *rng == *ref)
				}
			}
		}
		pk := lambda / math.Expm1(lambda)
		for k, cnt := range counts {
			got := float64(cnt) / float64(c.n)
			se := math.Sqrt(pk * (1 - pk) / float64(c.n))
			if math.Abs(got-pk) > 6*se+1e-12 {
				t.Errorf("λ=%v: P[X=%d] = %v, want %v ± %v", lambda, k+1, got, pk, 6*se)
			}
			pk *= lambda / float64(k+2)
		}
	}
}

func BenchmarkPoisson(b *testing.B) {
	rng, p := prng.New(1), NewPoisson(0.4)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += p.Draw(rng)
	}
	_ = sink
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3},                   // BINV
		{40, 0.5},                   // BTRS at the p=0.5 boundary
		{1000, 0.002},               // BINV with large n, tiny p
		{1000, 0.3},                 // BTRS
		{10000, 0.45},               // BTRS, large n
		{100, 0.9},                  // reflected to p=0.1
		{1 << 40, 4.5e-12},          // huge n, BINV regime: must not do O(n) work
		{1 << 40, 13.0 / (1 << 40)}, // huge n, BTRS regime
	}
	for _, c := range cases {
		rng, b := prng.New(3), NewBinomial(c.p)
		mean, variance := moments(sampleN, func() float64 { return float64(b.Draw(rng, c.n)) })
		nf := float64(c.n)
		checkMoments(t, "Binomial", mean, variance, nf*c.p, nf*c.p*(1-c.p))
	}
}

func TestBinomialEdges(t *testing.T) {
	rng := prng.New(1)
	half, zero, one, hi := NewBinomial(0.5), NewBinomial(0), NewBinomial(1), NewBinomial(0.7)
	for i := 0; i < 100; i++ {
		if k := half.Draw(rng, 0); k != 0 {
			t.Fatalf("Binomial(0, .5) = %d, want 0", k)
		}
		if k := zero.Draw(rng, 10); k != 0 {
			t.Fatalf("Binomial(10, 0) = %d, want 0", k)
		}
		if k := one.Draw(rng, 10); k != 10 {
			t.Fatalf("Binomial(10, 1) = %d, want 10", k)
		}
		if k := hi.Draw(rng, 20); k < 0 || k > 20 {
			t.Fatalf("Binomial(20, 0.7) = %d out of range", k)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(n=-1) did not panic")
			}
		}()
		half.Draw(rng, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBinomial(NaN) did not panic")
			}
		}()
		NewBinomial(math.NaN())
	}()
}

func BenchmarkBinomial(b *testing.B) {
	rng, s := prng.New(1), NewBinomial(0.1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Draw(rng, 16)
	}
	_ = sink
}

func TestDeterminism(t *testing.T) {
	// Identical seeds must reproduce identical draw sequences across all
	// three samplers interleaved — the reproducibility contract every
	// experiment table depends on.
	run := func() []int64 {
		rng := prng.New(42)
		g, p4, p40, b25, b40 := NewGeometric(0.2), NewPoisson(4), NewPoisson(40), NewBinomial(0.25), NewBinomial(0.4)
		var out []int64
		for i := 0; i < 1000; i++ {
			out = append(out,
				g.Draw(rng),
				p4.Draw(rng),
				p40.Draw(rng),
				b25.Draw(rng, 100),
				b40.Draw(rng, 5000),
			)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
