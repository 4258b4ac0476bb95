// Package dist provides exact discrete-distribution samplers on top of the
// deterministic prng sources: Geometric, Poisson, and Binomial.
//
// These are the primitive draws of the simulator's hot paths — geometric
// gaps between channel accesses, Poisson arrival batches, and binomial jam
// counts over unobserved slot ranges — so every sampler here is exact in
// distribution (no normal approximations) and deterministic given the
// source's state. Each sampler is a value built once per parameter
// (NewGeometric, NewPoisson, NewBinomial) that holds every constant
// depending only on that parameter, so a draw computes no logarithm or
// exponential of a fixed parameter. Constant-parameter validation is the
// caller's job; the samplers panic on parameters outside their documented
// domains, because a bad parameter is always a programming error upstream,
// never data.
//
// # Short geometric gaps by comparison
//
// Geometric's inverse CDF returns X = ceil(ln u / ln(1-p)) for a uniform u
// in (0,1), so X = k exactly when (1-p)^k <= u < (1-p)^(k-1). Draw decides
// k = 1, 2, 3 by comparing u with the cut points c_k = (1-p)^k, computed on
// the fly as q = 1-p, q·q, q·q·q, and falls back to the logarithm when u
// lies within a factor 1±2^-32 of a cut point or below c_3. The result is
// the one the logarithm path would compute, for every 0 < p < 1:
//
//   - The computed cut point is within a relative 7·2^-53 of the true
//     (1-p)^k: one rounding for 1-p, at most two products, and the product
//     with the band factor.
//   - So u >= c_k·(1+2^-32) implies u >= (1-p)^k·(1+2^-33), that is
//     ln u >= k·ln(1-p) + 2^-34, and the true ratio ln u / ln(1-p) is at
//     most k - 2^-34/|ln(1-p)|. Symmetrically u <= c_k·(1-2^-32) puts the
//     true ratio at least k + 2^-34/|ln(1-p)| above.
//   - The computed ratio differs from the true one by at most 1 ulp of
//     math.Log, 1 ulp of math.Log1p and the rounding of the division:
//     a relative 2^-50, an absolute 3·2^-50 for a ratio near k <= 3.
//   - Since 1-p >= 2^-53 for every float64 p < 1, |ln(1-p)| <= 53·ln 2 < 37,
//     and the band's margin 2^-34/37 > 2^-40 exceeds that error by a factor
//     of about 2^8. The computed ratio therefore lands on the same side of
//     every integer k <= 3 as the true ratio, and ceil gives the same k.
//
// The comparison path consumes the same single uniform, so sources end in
// the same state. For tiny p, where q rounds to 1, every comparison fails
// and the draw takes the logarithm path, as it must.
package dist

import (
	"fmt"
	"math"

	"lowsensing/prng"
)

// MaxGeometric caps every gap a station may schedule ahead: geometric
// draws here, and the backoff windows of the window-based protocols. A
// gap this long (2^62 slots) is unreachable in any simulation the engine
// can run, so the truncation is theoretical.
//
// Together with MaxSlotSpan it keeps slot arithmetic inside int64: every
// slot a station schedules from is at most a run's MaxSlots plus one
// configured span (a crash's down time, a churn lifetime or period), so
// at most 2·2^60, and adding one gap of at most 2^62 stays below MaxInt64.
const MaxGeometric = int64(1) << 62

// MaxSlotSpan bounds every configured slot count: a run's MaxSlots, a
// crash's down time, a churn lifetime or period. See MaxGeometric.
const MaxSlotSpan = int64(1) << 60

// Geometric samples the number of independent Bernoulli(p) trials up to
// and including the first success: support {1, 2, ...}, mean 1/p. Build it
// with NewGeometric; the zero value is invalid.
type Geometric struct {
	p   float64
	lnq float64 // ln(1-p)
}

// NewGeometric returns the Geometric(p) sampler, with ln(1-p) computed once.
// A p <= 0 or NaN is reported by Draw, not here, so callers may build the
// sampler for any probability they compute.
//
//lsbvet:hotpath
func NewGeometric(p float64) Geometric {
	return Geometric{p: p, lnq: math.Log1p(-p)}
}

// P returns the success probability p.
func (g Geometric) P() float64 { return g.p }

// Guard band of the comparison path (see the package doc): a uniform
// within a factor 1±2^-32 of a cut point (1-p)^k goes to the exact path.
const (
	bandHi = 1 + 0x1p-32
	bandLo = 1 - 0x1p-32
)

// Draw returns one Geometric(p) variate by the exact inverse CDF,
// X = ceil(ln U / ln(1-p)) for one uniform U in (0,1). Gaps of 1, 2 or 3
// are decided by comparing U with (1-p)^k instead (see the package doc);
// either way the result and the uniforms consumed are the inverse CDF's.
// Edge cases: p >= 1 always returns 1 and draws nothing; p <= 0 or NaN
// panics, since the waiting time would be infinite; draws that would exceed
// 2^62 (possible only for p below ~1e-18) are truncated there so slot
// arithmetic cannot overflow.
//
//lsbvet:hotpath
func (g Geometric) Draw(rng *prng.Source) int64 {
	if g.p >= 1 {
		return 1
	}
	if !(g.p > 0) { // also catches NaN
		geometricPanic(g.p)
	}
	return g.invert(rng.Float64Open())
}

// invert maps one uniform u in (0,1) to the variate, for 0 < p < 1.
func (g Geometric) invert(u float64) int64 {
	q := 1 - g.p
	q2 := q * q
	// Gaps beyond 3 are one predictable branch: most draws at small p.
	if u >= q2*q*bandHi {
		// Which of 1, 2, 3 the gap is, is a coin flip per draw, so these
		// tests are bit arithmetic rather than branches: a_j says
		// u < c_j·(1+2^-32), b_j says u > c_j·(1-2^-32). The gap is
		// 1+a_1+a_2 unless u is inside a band (a_j and b_j).
		a1, b1 := less(u, q*bandHi), less(q*bandLo, u)
		a2, b2 := less(u, q2*bandHi), less(q2*bandLo, u)
		if a1&b1|a2&b2 == 0 {
			return int64(1 + a1 + a2)
		}
	}
	// The inverse CDF itself. lnq = ln(1-p) is finite and negative here
	// because 0 < p < 1.
	x := math.Ceil(math.Log(u) / g.lnq)
	if x < 1 {
		// Float64Open can return values so close to 1 that the ratio rounds
		// to 0; the inverse CDF maps that region to the minimum value 1.
		return 1
	}
	if x >= float64(MaxGeometric) {
		return MaxGeometric
	}
	return int64(x)
}

// less returns 1 if x < y and 0 otherwise, for x, y positive and finite,
// whose bit patterns order as the values do.
func less(x, y float64) uint64 {
	return (math.Float64bits(x) - math.Float64bits(y)) >> 63
}

// geometricPanic keeps fmt's formatting out of the hot sampler's body and
// inlining budget.
//
//go:noinline
func geometricPanic(p float64) {
	panic(fmt.Sprintf("dist: Geometric requires p > 0, got %v", p))
}

// poissonPTRSCutover is the λ above which Poisson switches from Knuth's
// product-of-uniforms method (expected λ+1 uniforms per draw) to Hörmann's
// PTRS transformed-rejection method (O(1) uniforms per draw). PTRS is valid
// for λ >= 10; the product method's e^-λ factor underflows near λ ≈ 745, so
// the cutover must sit between those bounds.
const poissonPTRSCutover = 10

// poissonInvertPositive is the λ below which DrawPositive inverts the
// zero-truncated CDF instead of rejecting zeros, which takes about 1/λ
// draws per result.
const poissonInvertPositive = 0x1p-10

// MaxPoissonLambda bounds the mean Poisson accepts: beyond 2^52 the
// support no longer fits the float64 integer range, so exact sampling is
// impossible.
const MaxPoissonLambda = 1 << 52

// Poisson samples the Poisson distribution with mean λ: support
// {0, 1, ...}, variance λ. Build it with NewPoisson.
//
// For λ < 10 it uses Knuth's exact product-of-uniforms method; for larger λ
// it uses Hörmann's PTRS transformed rejection ("The transformed rejection
// method for generating Poisson random variables", 1993), which is also
// exact and needs O(1) uniforms regardless of λ.
type Poisson struct {
	lambda float64
	limit  float64 // Knuth: e^-λ
	p1     float64 // DrawPositive's P[1] = λ/(e^λ-1), for λ < 2^-10
	// PTRS: ln λ and the hat's constants, functions of λ alone.
	logLambda, b, a, invAlpha, vr float64
}

// NewPoisson returns the Poisson(λ) sampler with every constant that
// depends on λ alone computed once. λ == 0 is the degenerate distribution
// at 0. It panics if λ is negative or NaN, or λ >= MaxPoissonLambda rather
// than silently losing mass.
func NewPoisson(lambda float64) Poisson {
	switch {
	case lambda == 0:
		return Poisson{}
	case !(lambda > 0): // negative or NaN
		panic(fmt.Sprintf("dist: Poisson requires lambda >= 0, got %v", lambda))
	case lambda >= MaxPoissonLambda:
		panic(fmt.Sprintf("dist: Poisson lambda %v too large for exact sampling", lambda))
	}
	if lambda < poissonInvertPositive {
		return Poisson{lambda: lambda, limit: math.Exp(-lambda), p1: lambda / math.Expm1(lambda)}
	}
	if lambda < poissonPTRSCutover {
		return Poisson{lambda: lambda, limit: math.Exp(-lambda)}
	}
	b := 0.931 + 2.53*math.Sqrt(lambda)
	return Poisson{
		lambda:    lambda,
		logLambda: math.Log(lambda),
		b:         b,
		a:         -0.059 + 0.02483*b,
		invAlpha:  1.1239 + 1.1328/(b-3.4),
		vr:        0.9277 - 3.6224/(b-2),
	}
}

// Draw returns one Poisson(λ) variate.
func (p *Poisson) Draw(rng *prng.Source) int64 {
	switch {
	case p.lambda == 0:
		return 0
	case p.lambda < poissonPTRSCutover:
		return p.knuth(rng)
	}
	return p.ptrs(rng)
}

// DrawPositive returns one variate of the zero-truncated Poisson(λ)
// distribution, P[k] = λ^k e^-λ / (k! (1 - e^-λ)) for k >= 1. For
// λ >= 2^-10 it rejects zeros from Draw; below, where that would take
// about 1/λ draws, it inverts the truncated CDF from k = 1 with one
// uniform. It panics if λ == 0, which has no positive support.
func (p *Poisson) DrawPositive(rng *prng.Source) int64 {
	if p.lambda == 0 {
		panic("dist: DrawPositive requires lambda > 0")
	}
	if p.lambda >= poissonInvertPositive {
		var k int64
		for k == 0 {
			k = p.Draw(rng)
		}
		return k
	}
	u := rng.Float64()
	k := int64(1)
	r := p.p1
	for u > r && r > 0 {
		// r > 0 ends the walk where rounding left u above the summed mass.
		u -= r
		k++
		r *= p.lambda / float64(k)
	}
	return k
}

// knuth multiplies uniforms until the product drops below e^-λ; the number
// of factors minus one is Poisson(λ).
func (p *Poisson) knuth(rng *prng.Source) int64 {
	var k int64
	prod := rng.Float64Open()
	for prod > p.limit {
		k++
		prod *= rng.Float64Open()
	}
	return k
}

// ptrs is Hörmann's PTRS, exact for λ >= 10.
func (p *Poisson) ptrs(rng *prng.Source) int64 {
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*p.a/us+p.b)*u + p.lambda + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(kf + 1)
		if math.Log(v*p.invAlpha/(p.a/(us*us)+p.b)) <= kf*p.logLambda-p.lambda-lg {
			return int64(kf)
		}
	}
}

// binomialBTRSCutover is the n·min(p,1-p) above which Binomial switches
// from sequential inversion (BINV, expected O(np) work) to Hörmann's BTRS
// transformed rejection (O(1) work). BTRS is valid for n·min(p,1-p) >= 10.
const binomialBTRSCutover = 10

// Binomial samples Binomial(n, p), the number of successes in n
// independent Bernoulli(p) trials, for a fixed p and any n per draw. Build
// it with NewBinomial.
//
// Sampling is exact at every parameter: p is reflected to r = min(p, 1-p),
// then small n·r uses BINV inversion and large n·r uses Hörmann's BTRS
// transformed rejection ("The generation of binomial random variates",
// 1993), so the cost is O(min(nr, 1)) uniforms — in particular sampling jam
// counts over huge slot ranges never does O(n) work.
type Binomial struct {
	p    float64 // as given
	r    float64 // min(p, 1-p)
	q    float64 // 1 - r
	s    float64 // r / q, BINV's pmf ratio
	lnq  float64 // ln(1-r), BINV's starting mass exponent
	lpq  float64 // ln(r/(1-r)), BTRS's
	flip bool    // p > 0.5: sample failures and return n minus them
}

// NewBinomial returns the Binomial(·, p) sampler with every constant that
// depends on p alone computed once. p <= 0 always draws 0 and p >= 1 always
// draws n; a NaN p panics.
func NewBinomial(p float64) Binomial {
	if math.IsNaN(p) {
		panic("dist: Binomial requires p in [0,1], got NaN")
	}
	b := Binomial{p: p}
	if p <= 0 || p >= 1 {
		return b
	}
	// Reflect to r = min(p, 1-p); successes and failures swap roles.
	b.r = p
	if p > 0.5 {
		b.r, b.flip = 1-p, true
	}
	b.q = 1 - b.r
	b.s = b.r / b.q
	b.lnq = math.Log1p(-b.r)
	b.lpq = math.Log(b.r / (1 - b.r))
	return b
}

// Draw returns one Binomial(n, p) variate, in {0, ..., n}. It panics if
// n < 0.
func (b *Binomial) Draw(rng *prng.Source, n int64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("dist: Binomial requires n >= 0, got %d", n))
	}
	if n == 0 || b.p <= 0 {
		return 0
	}
	if b.p >= 1 {
		return n
	}
	var k int64
	if float64(n)*b.r < binomialBTRSCutover {
		k = b.binv(rng, n)
	} else {
		k = b.btrs(rng, n)
	}
	if b.flip {
		return n - k
	}
	return k
}

// binv is the sequential inversion method: walk the CDF from k=0 using the
// pmf recurrence. Expected work is O(nr+1); the cutover keeps that below
// ~10 iterations. The starting mass q^n = exp(n·ln(1-r)) cannot underflow
// in this regime (nr < 10, r <= 0.5 imply q^n > e^-20).
func (b *Binomial) binv(rng *prng.Source, n int64) int64 {
	a := float64(n+1) * b.s
	r := math.Exp(float64(n) * b.lnq) // q^n
	u := rng.Float64()
	var k int64
	for u > r {
		u -= r
		k++
		if k > n {
			// Unreachable in exact arithmetic (the pmf sums to 1); guards
			// against accumulated floating-point rounding.
			return n
		}
		r *= a/float64(k) - b.s
	}
	return k
}

// btrs is Hörmann's BTRS, exact for n·r >= 10 with r <= 0.5.
func (b *Binomial) btrs(rng *prng.Source, n int64) int64 {
	nf, p := float64(n), b.r
	spq := math.Sqrt(nf * p * b.q)
	bb := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*bb + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/bb
	alpha := (2.83 + 5.1/bb) * spq
	m := math.Floor(float64(n+1) * p) // mode
	lgM, _ := math.Lgamma(m + 1)
	lgNM, _ := math.Lgamma(nf - m + 1)
	h := lgM + lgNM
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+bb)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int64(kf)
		}
		lgK, _ := math.Lgamma(kf + 1)
		lgNK, _ := math.Lgamma(nf - kf + 1)
		if math.Log(v*alpha/(a/(us*us)+bb)) <= h-lgK-lgNK+(kf-m)*b.lpq {
			return int64(kf)
		}
	}
}
