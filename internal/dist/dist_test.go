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
		rng := prng.New(1)
		mean, variance := moments(sampleN, func() float64 { return float64(Geometric(rng, p)) })
		checkMoments(t, "Geometric", mean, variance, 1/p, (1-p)/(p*p))
	}
}

func TestGeometricPMF(t *testing.T) {
	// Empirical pmf of the first few support points must match p(1-p)^(k-1).
	const p = 0.4
	rng := prng.New(7)
	counts := make([]int, 6)
	for i := 0; i < sampleN; i++ {
		if g := Geometric(rng, p); g >= 1 && int(g) <= len(counts) {
			counts[g-1]++
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
	for i := 0; i < 100; i++ {
		if g := Geometric(rng, 1); g != 1 {
			t.Fatalf("Geometric(p=1) = %d, want 1", g)
		}
		if g := Geometric(rng, 1.5); g != 1 {
			t.Fatalf("Geometric(p=1.5) = %d, want 1", g)
		}
	}
	// Tiny p must produce huge but bounded, positive gaps.
	for i := 0; i < 100; i++ {
		g := Geometric(rng, 1e-18)
		if g < 1 || g > MaxGeometric {
			t.Fatalf("Geometric(p=1e-18) = %d out of [1, 2^62]", g)
		}
	}
	for _, p := range []float64{0, -0.5, math.NaN()} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(p=%v) did not panic", p)
				}
			}()
			Geometric(rng, p)
		}()
	}
}

// TestGeometricLog1pMatchesGeometric pins that the variant taking a
// precomputed ln(1-p) returns Geometric's values and consumes exactly its
// draws, including the draw-free p = 1 case.
func TestGeometricLog1pMatchesGeometric(t *testing.T) {
	for _, p := range []float64{1e-18, 1e-6, 0.5, 1 - 1e-16, 1} {
		a, b := prng.New(11), prng.New(11)
		lnq := math.Log1p(-p)
		for i := 0; i < 10_000; i++ {
			ga, gb := Geometric(a, p), GeometricLog1p(b, p, lnq)
			if ga != gb || *a != *b {
				t.Fatalf("p=%v draw %d: Geometric = %d, GeometricLog1p = %d, sources equal: %v", p, i, ga, gb, *a == *b)
			}
		}
		if p == 1 && *a != *prng.New(11) {
			t.Fatal("Geometric(p=1) consumed a draw")
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	const p = 0.01
	b.Run("p", func(b *testing.B) {
		rng := prng.New(1)
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += Geometric(rng, p)
		}
		_ = sink
	})
	b.Run("log1p", func(b *testing.B) {
		rng := prng.New(1)
		lnq := math.Log1p(-p)
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += GeometricLog1p(rng, p, lnq)
		}
		_ = sink
	})
}

func TestPoissonMoments(t *testing.T) {
	// Spans both the Knuth branch (λ < 10) and the PTRS branch (λ >= 10).
	for _, lambda := range []float64{0.5, 3, 9.5, 12, 50, 400} {
		rng := prng.New(2)
		mean, variance := moments(sampleN, func() float64 { return float64(Poisson(rng, lambda)) })
		checkMoments(t, "Poisson", mean, variance, lambda, lambda)
	}
}

func TestPoissonEdges(t *testing.T) {
	rng := prng.New(1)
	for i := 0; i < 100; i++ {
		if k := Poisson(rng, 0); k != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", k)
		}
	}
	for _, lambda := range []float64{-1, math.NaN(), 1 << 53} {
		lambda := lambda
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(λ=%v) did not panic", lambda)
				}
			}()
			Poisson(rng, lambda)
		}()
	}
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
		rng := prng.New(3)
		mean, variance := moments(sampleN, func() float64 { return float64(Binomial(rng, c.n, c.p)) })
		nf := float64(c.n)
		checkMoments(t, "Binomial", mean, variance, nf*c.p, nf*c.p*(1-c.p))
	}
}

func TestBinomialEdges(t *testing.T) {
	rng := prng.New(1)
	for i := 0; i < 100; i++ {
		if k := Binomial(rng, 0, 0.5); k != 0 {
			t.Fatalf("Binomial(0, .5) = %d, want 0", k)
		}
		if k := Binomial(rng, 10, 0); k != 0 {
			t.Fatalf("Binomial(10, 0) = %d, want 0", k)
		}
		if k := Binomial(rng, 10, 1); k != 10 {
			t.Fatalf("Binomial(10, 1) = %d, want 10", k)
		}
		if k := Binomial(rng, 20, 0.7); k < 0 || k > 20 {
			t.Fatalf("Binomial(20, 0.7) = %d out of range", k)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(n=-1) did not panic")
			}
		}()
		Binomial(rng, -1, 0.5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(p=NaN) did not panic")
			}
		}()
		Binomial(rng, 10, math.NaN())
	}()
}

func TestDeterminism(t *testing.T) {
	// Identical seeds must reproduce identical draw sequences across all
	// three samplers interleaved — the reproducibility contract every
	// experiment table depends on.
	run := func() []int64 {
		rng := prng.New(42)
		var out []int64
		for i := 0; i < 1000; i++ {
			out = append(out,
				Geometric(rng, 0.2),
				Poisson(rng, 4),
				Poisson(rng, 40),
				Binomial(rng, 100, 0.25),
				Binomial(rng, 5000, 0.4),
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
