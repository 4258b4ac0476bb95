// Package core implements LOW-SENSING BACKOFF, the contention-resolution
// algorithm of Bender, Fineman, Gilbert, Kuszmaul, and Young, "Fully
// Energy-Efficient Randomized Backoff: Slow Feedback Loops Yield Fast
// Contention Resolution" (PODC 2024), Figure 1.
//
// Each packet keeps a window w, initially WMin. In every slot the packet
// accesses the channel (listens) with probability c·ln^k(w)/w and,
// conditioned on accessing, sends with probability 1/(c·ln^k(w)) — so the
// unconditional send probability is exactly 1/w. On hearing silence the
// window shrinks by the factor 1 + 1/(c·ln w) (down to WMin); on hearing
// noise it grows by the same factor; on hearing someone else's success it
// is unchanged. The paper fixes k = 3; the exponent is configurable here so
// ablation experiments can probe the design space.
//
// Every per-access quantity — ln w, the send probability and the geometric
// gap sampler of the access probability — is a pure function of w, and w
// changes only when an access hears silence or noise: the paper's slow
// feedback loop. A Packet therefore caches them and refreshes the cache
// exactly when w changes, so an access whose window is unchanged does no
// logarithms or powers at all. The cached values are computed by the same
// function as Config's exported helpers, so they are bit-identical to
// calling those helpers on every access.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// Config holds the parameters of LOW-SENSING BACKOFF.
//
// The paper requires c to be a sufficiently large constant and WMin to be a
// sufficiently large constant with WMin > 2 and WMin/ln^k(WMin) >= c; the
// latter guarantees the access probability never exceeds 1. Those constants
// trade constant-factor throughput against the polylog energy constant;
// Default returns a practical operating point (see ablation A2 in
// EXPERIMENTS.md for the sensitivity map).
type Config struct {
	// C is the constant c of the algorithm.
	C float64
	// WMin is the minimum (and initial) window size.
	WMin float64
	// LnPower is the exponent k in the access probability c·ln^k(w)/w.
	// The paper uses 3.
	LnPower float64
	// Update selects the window update rule. The zero value is the paper's
	// slow multiplicative rule; UpdateDoubling is the classic-backoff
	// ablation (DESIGN.md §6).
	Update UpdateRule
}

// UpdateRule selects how the window reacts to feedback.
type UpdateRule int

// Window update rules.
const (
	// UpdatePaper is the paper's rule: multiply or divide by
	// 1 + 1/(c·ln w).
	UpdatePaper UpdateRule = iota
	// UpdateDoubling is the ablation rule: double on noise, halve on
	// silence. It overshoots — the slow feedback loop mis-tracks
	// contention when each observation moves the window a whole octave.
	UpdateDoubling
)

// Default returns the reference configuration used by the experiments:
// c = 0.5, w_min = 8, k = 3. It satisfies Validate.
func Default() Config {
	return Config{C: 0.5, WMin: 8, LnPower: 3}
}

// Validate checks the constraints the paper places on the parameters.
func (c Config) Validate() error {
	if !(c.C > 0) || math.IsInf(c.C, 0) || math.IsNaN(c.C) {
		return fmt.Errorf("core: C must be positive and finite, got %v", c.C)
	}
	if !(c.WMin > 2) || math.IsInf(c.WMin, 0) {
		return fmt.Errorf("core: WMin must be > 2, got %v", c.WMin)
	}
	if !(c.LnPower >= 0) || math.IsNaN(c.LnPower) {
		return fmt.Errorf("core: LnPower must be >= 0, got %v", c.LnPower)
	}
	p := c.scale(math.Log(c.WMin)) / c.WMin
	if p > 1 {
		return fmt.Errorf("core: access probability at WMin is %v > 1; need C·ln^k(WMin) <= WMin", p)
	}
	if !(p > 0) {
		return fmt.Errorf("core: access probability at WMin is %v, not > 0; C·ln^k(WMin) underflows", p)
	}
	if c.Update != UpdatePaper && c.Update != UpdateDoubling {
		return fmt.Errorf("core: unknown update rule %d", c.Update)
	}
	return nil
}

// scale returns c·ln^k(w) given ln w. The access probability is scale/w
// and the send probability given access 1/scale, each clamped to 1.
func (c Config) scale(lnw float64) float64 {
	if k := c.LnPower; k >= 0 && k <= maxIntPower && k == float64(int(k)) {
		return c.C * powInt(lnw, int(k))
	}
	return c.C * math.Pow(lnw, c.LnPower)
}

// maxIntPower is the largest integral LnPower scale computes by powInt.
const maxIntPower = 16

// powInt returns x^k for 0 <= k <= maxIntPower by math.Pow's own
// square-and-multiply order: multiply the result by x^(2^i) for every set
// bit i of k, lowest first. math.Pow runs that loop on x's mantissa and
// tracks the exponent apart, which scales every product by a power of two,
// so for normal x and results — ln w lies in [ln 2, 710) — the two give
// the same bits, without math.Pow's special-case tests, Modf and Frexp.
func powInt(x float64, k int) float64 {
	p := 1.0
	for ; k != 0; k >>= 1 {
		if k&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p
}

// step returns the multiplicative update 1 + 1/(c·ln w) given ln w.
func (c Config) step(lnw float64) float64 {
	return 1 + 1/(c.C*lnw)
}

// window is the per-window state of Figure 1: a window w and every quantity
// an access needs that depends only on w.
type window struct {
	w    float64
	lnw  float64        // ln w
	gap  dist.Geometric // gaps between accesses, of probability min(1, c·ln^k(w)/w)
	send float64        // min(1, 1/(c·ln^k(w)))
}

// window computes the per-window state for w. It is the one place the
// access and send probabilities are computed: the exported helpers and the
// Packet cache both read it.
//
//lsbvet:hotpath
func (c Config) window(w float64) window {
	lnw := math.Log(w)
	cp := c.scale(lnw)
	access, send := cp/w, 1/cp
	if access > 1 {
		access = 1
	}
	if send > 1 {
		send = 1
	}
	return window{w: w, lnw: lnw, gap: dist.NewGeometric(access), send: send}
}

// grow returns the window after hearing a noisy slot, given w and ln w.
//
//lsbvet:hotpath
func (c Config) grow(w, lnw float64) float64 {
	if c.Update == UpdateDoubling {
		return w * 2
	}
	return w * c.step(lnw)
}

// shrink returns the window after hearing a silent slot, floored at WMin,
// given w and ln w.
//
//lsbvet:hotpath
func (c Config) shrink(w, lnw float64) float64 {
	var w2 float64
	if c.Update == UpdateDoubling {
		w2 = w / 2
	} else {
		w2 = w / c.step(lnw)
	}
	if w2 < c.WMin {
		return c.WMin
	}
	return w2
}

// AccessProb returns the probability that a packet with window w accesses
// (listens to) the channel in a slot: min(1, c·ln^k(w)/w).
func (c Config) AccessProb(w float64) float64 { return c.window(w).gap.P() }

// SendProbGivenAccess returns the probability that an accessing packet also
// sends: min(1, 1/(c·ln^k(w))). The unconditional send probability is the
// product AccessProb(w)·SendProbGivenAccess(w), which equals 1/w whenever
// neither factor is clamped.
func (c Config) SendProbGivenAccess(w float64) float64 { return c.window(w).send }

// UpdateFactor returns the multiplicative step 1 + 1/(c·ln w) used by both
// back-off (grow) and back-on (shrink).
func (c Config) UpdateFactor(w float64) float64 { return c.step(math.Log(w)) }

// Backoff returns the window after hearing a noisy slot.
func (c Config) Backoff(w float64) float64 { return c.grow(w, math.Log(w)) }

// Backon returns the window after hearing a silent slot, floored at WMin.
func (c Config) Backon(w float64) float64 { return c.shrink(w, math.Log(w)) }

// Packet is one packet running LOW-SENSING BACKOFF. It implements
// channel.Station (event-driven scheduling). A Packet is not safe for
// concurrent use.
//
// A Packet caches its per-window state (see the package doc): the cached
// quantities are a pure function of w and are refreshed exactly when
// Observe changes w, so ScheduleNext only reads them. The
// immutable configuration and the state at WMin are shared by every packet
// of a configuration, which keeps a Packet at 48 bytes.
type Packet struct {
	sh *shared
	window
}

// shared is what every packet of one configuration reads and nobody writes.
type shared struct {
	cfg  Config
	init window // the state at WMin, computed once
}

// lastShared memoizes the most recent shared state. Sweeps, clusters and
// repeated runs build a factory per run from the same Config; reusing the
// immutable state keeps factory construction at one allocation (its
// closure), which the allocation-gate benchmarks hold. Which copy a packet
// points to never affects a result.
var lastShared atomic.Pointer[shared]

func newShared(cfg Config) *shared {
	if sh := lastShared.Load(); sh != nil && sh.cfg == cfg {
		return sh
	}
	sh := &shared{cfg: cfg, init: cfg.window(cfg.WMin)}
	lastShared.Store(sh)
	return sh
}

var (
	_ channel.Station         = (*Packet)(nil)
	_ channel.Windowed        = (*Packet)(nil)
	_ channel.ReusableStation = (*Packet)(nil)
)

// NewPacket returns a packet in its initial state (window WMin). It returns
// an error if the configuration is invalid.
func NewPacket(cfg Config) (*Packet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := newShared(cfg)
	return &Packet{sh: sh, window: sh.init}, nil
}

// NewFactory validates cfg once and returns a channel.StationFactory producing
// LOW-SENSING BACKOFF packets.
func NewFactory(cfg Config) (channel.StationFactory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := newShared(cfg)
	return func(_ int64, _ *prng.Source) channel.Station {
		return &Packet{sh: sh, window: sh.init}
	}, nil
}

// MustFactory is NewFactory for known-good configurations; it panics on an
// invalid config. Intended for examples and tests.
func MustFactory(cfg Config) channel.StationFactory {
	f, err := NewFactory(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Reset implements channel.ReusableStation: a recycled packet restarts at
// window WMin, exactly as NewFactory constructs it (the factory draws
// nothing from the rng, so neither does Reset).
func (p *Packet) Reset(_ int64, _ *prng.Source) { p.window = p.sh.init }

// Window returns the packet's current window size.
func (p *Packet) Window() float64 { return p.w }

// Config returns the packet's configuration.
func (p *Packet) Config() Config { return p.sh.cfg }

// ScheduleNext implements channel.Station. The access probability is constant
// between accesses (the window changes only on access), so the gap to the
// next access is exactly Geometric(AccessProb(w)).
//
//lsbvet:hotpath
func (p *Packet) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	gap := p.gap.Draw(rng)
	send := rng.Bernoulli(p.send)
	return from + gap - 1, send
}

// Observe implements channel.Station: apply the multiplicative window update
// for the observed outcome. A packet that sent and did not succeed knows
// the slot was noisy without listening (paper footnote 2); a heard success
// (someone else's) leaves the window unchanged.
//
//lsbvet:hotpath
func (p *Packet) Observe(obs channel.Observation) {
	switch {
	case obs.Succeeded:
		// Departing; no state to maintain.
	case obs.Outcome == channel.OutcomeNoisy:
		p.moveTo(p.sh.cfg.grow(p.w, p.lnw))
	case obs.Outcome == channel.OutcomeEmpty:
		p.moveTo(p.sh.cfg.shrink(p.w, p.lnw))
	case obs.Outcome == channel.OutcomeSuccess:
		// Someone else succeeded: no change.
	}
}

// moveTo sets the window to w and refreshes the cache, doing no work when w
// is unchanged (silence heard at WMin) and copying the shared state when w
// is WMin.
//
//lsbvet:hotpath
func (p *Packet) moveTo(w float64) {
	switch w {
	case p.w:
	case p.sh.init.w:
		p.window = p.sh.init
	default:
		p.window = p.sh.cfg.window(w)
	}
}
