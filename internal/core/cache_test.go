package core

import (
	"math"
	"testing"
	"unsafe"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// The reference formulas below are Figure 1 written out per access, as
// Packet computed them before it cached its per-window state. The cache
// must reproduce them bit for bit.

func refAccess(c Config, w float64) float64 {
	p := c.C * math.Pow(math.Log(w), c.LnPower) / w
	if p > 1 {
		return 1
	}
	return p
}

func refSend(c Config, w float64) float64 {
	p := 1 / (c.C * math.Pow(math.Log(w), c.LnPower))
	if p > 1 {
		return 1
	}
	return p
}

func refNext(c Config, w float64, o channel.Observation) float64 {
	switch {
	case o.Succeeded, o.Outcome == channel.OutcomeSuccess:
		return w
	case o.Outcome == channel.OutcomeNoisy:
		if c.Update == UpdateDoubling {
			return w * 2
		}
		return w * (1 + 1/(c.C*math.Log(w)))
	}
	w2 := w / 2
	if c.Update != UpdateDoubling {
		w2 = w / (1 + 1/(c.C*math.Log(w)))
	}
	if w2 < c.WMin {
		return c.WMin
	}
	return w2
}

// cacheConfigs covers both update rules and k in {0, 1, 3, 4}. The k = 4
// config with WMin = 3 has an access probability below 1 at WMin that
// clamps to 1 for windows near e^4; the k = 0 configs clamp the send
// probability to 1 everywhere.
func cacheConfigs() []Config {
	var out []Config
	for _, rule := range []UpdateRule{UpdatePaper, UpdateDoubling} {
		for _, c := range []Config{
			{C: 0.5, WMin: 8, LnPower: 0},
			{C: 0.5, WMin: 8, LnPower: 1},
			{C: 0.5, WMin: 8, LnPower: 3},
			{C: 0.1, WMin: 256, LnPower: 4},
			{C: 2, WMin: 3, LnPower: 4},
		} {
			c.Update = rule
			out = append(out, c)
		}
	}
	return out
}

var cacheObservations = []channel.Observation{
	{Outcome: channel.OutcomeEmpty},
	{Outcome: channel.OutcomeNoisy},
	{Outcome: channel.OutcomeNoisy, Sent: true},
	{Outcome: channel.OutcomeSuccess},
	{Outcome: channel.OutcomeSuccess, Sent: true, Succeeded: true},
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCache asserts that p's cached state is exactly what the exported
// helpers and the reference formulas give for its window.
func checkCache(t *testing.T, cfg Config, p *Packet, step int) {
	t.Helper()
	w := p.Window()
	access, send := cfg.AccessProb(w), cfg.SendProbGivenAccess(w)
	if !same(p.gap.P(), access) || !same(p.gap.P(), refAccess(cfg, w)) {
		t.Fatalf("%+v step %d w=%v: cached access %v, helper %v, reference %v", cfg, step, w, p.gap.P(), access, refAccess(cfg, w))
	}
	if !same(p.send, send) || !same(p.send, refSend(cfg, w)) {
		t.Fatalf("%+v step %d w=%v: cached send %v, helper %v, reference %v", cfg, step, w, p.send, send, refSend(cfg, w))
	}
	if !same(p.lnw, math.Log(w)) || p.gap != dist.NewGeometric(access) {
		t.Fatalf("%+v step %d w=%v: cached ln w %v, gap sampler %+v", cfg, step, w, p.lnw, p.gap)
	}
}

// TestPacketCacheBitIdentical drives packets through random outcome
// sequences and checks, at every step, that the cached access and send
// probabilities equal Config's helpers and the per-access formulas bit for
// bit, and that the next window equals Backoff/Backon and the formulas.
func TestPacketCacheBitIdentical(t *testing.T) {
	rng := prng.New(14)
	for _, cfg := range cacheConfigs() {
		p, err := NewPacket(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		clamped := false
		for seq := 0; seq < 20; seq++ {
			p.Reset(0, nil)
			// Vary the noisy share per sequence so some walks stay near WMin
			// and some climb to large windows.
			noisy := rng.Float64()
			for step := 0; step < 500; step++ {
				checkCache(t, cfg, p, step)
				clamped = clamped || p.gap.P() == 1
				var o channel.Observation
				switch u := rng.Float64(); {
				case u < noisy:
					o = cacheObservations[1+rng.Intn(2)]
				case u < noisy+(1-noisy)*0.8:
					o = cacheObservations[0]
				default:
					o = cacheObservations[3+rng.Intn(2)]
				}
				w := p.Window()
				want := refNext(cfg, w, o)
				switch {
				case o.Outcome == channel.OutcomeNoisy && !o.Succeeded:
					if got := cfg.Backoff(w); !same(got, want) {
						t.Fatalf("%+v: Backoff(%v) = %v, reference %v", cfg, w, got, want)
					}
				case o.Outcome == channel.OutcomeEmpty:
					if got := cfg.Backon(w); !same(got, want) {
						t.Fatalf("%+v: Backon(%v) = %v, reference %v", cfg, w, got, want)
					}
				}
				p.Observe(o)
				if !same(p.Window(), want) {
					t.Fatalf("%+v step %d: window after %+v = %v, reference %v", cfg, step, o, p.Window(), want)
				}
			}
		}
		if cfg.LnPower == 4 && cfg.WMin == 3 && !clamped {
			t.Fatalf("%+v: no walk reached a window whose access probability clamps to 1", cfg)
		}
	}
}

// TestScheduleNextMatchesPerAccessFormula pins that ScheduleNext returns
// the same (slot, send) as computing the probabilities per access and
// drawing a fresh dist.Geometric, and leaves the source in the same state.
func TestScheduleNextMatchesPerAccessFormula(t *testing.T) {
	walk := prng.New(3)
	for _, cfg := range cacheConfigs() {
		p, err := NewPacket(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		rng := prng.New(uint64(cfg.LnPower) + 1)
		for step := 0; step < 5000; step++ {
			from := int64(step) * 3
			ref := *rng
			w := p.Window()
			gap := dist.NewGeometric(refAccess(cfg, w))
			wantSlot := from + gap.Draw(&ref) - 1
			wantSend := ref.Bernoulli(refSend(cfg, w))
			slot, send := p.ScheduleNext(from, rng)
			if slot != wantSlot || send != wantSend {
				t.Fatalf("%+v step %d w=%v: ScheduleNext = (%d, %v), reference (%d, %v)", cfg, step, w, slot, send, wantSlot, wantSend)
			}
			if *rng != ref {
				t.Fatalf("%+v step %d: ScheduleNext consumed different draws than the reference", cfg, step)
			}
			p.Observe(walkObservation(walk, p))
		}
	}
}

// walkObservation picks a random observation, but silence once the window
// passes 2^20, so long walks stay finite under either update rule.
func walkObservation(walk *prng.Source, p *Packet) channel.Observation {
	if p.Window() > 1<<20 {
		return cacheObservations[0]
	}
	return cacheObservations[walk.Intn(len(cacheObservations))]
}

// TestPacketSize keeps a Packet in the 48-byte malloc size class, so a
// batch of stations costs no more memory than before the cache.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want <= 48", got)
	}
}

// TestFactorySharesState pins that factories built from one Config share
// its immutable state, so building a factory per run costs one allocation
// (the closure), and that a different Config gets its own state.
func TestFactorySharesState(t *testing.T) {
	cfg := Default()
	MustFactory(cfg)
	if allocs := testing.AllocsPerRun(100, func() { MustFactory(cfg) }); allocs > 1 {
		t.Fatalf("MustFactory allocates %v times per call, want 1", allocs)
	}
	a := MustFactory(cfg)(0, nil).(*Packet)
	b := MustFactory(Config{C: 0.5, WMin: 16, LnPower: 3})(0, nil).(*Packet)
	if a.sh == b.sh || a.Config() != cfg || b.Window() != 16 {
		t.Fatalf("factories of different configs share state: %+v vs %+v", a.Config(), b.Config())
	}
}

// TestScaleMatchesPow pins that scale's multiplication for integral
// k <= 16 gives math.Pow's bits for every ln w a window can have, in
// [ln 2, 709], and that other exponents still go through math.Pow. The
// products must come in math.Pow's order: x·x·x·x for k = 4, say, rounds
// differently from (x·x)·(x·x).
func TestScaleMatchesPow(t *testing.T) {
	rng := prng.New(16)
	xs := []float64{math.Ln2, math.Log(3), math.Log(8), 1, math.E, 709}
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Ln2+(709-math.Ln2)*rng.Float64(), math.Exp(rng.Float64()*math.Log(709/math.Ln2))*math.Ln2)
	}
	ks := []float64{2.5, 3.0000001, 16.5, 17, 0.5}
	for k := 0; k <= maxIntPower; k++ {
		ks = append(ks, float64(k))
	}
	for _, k := range ks {
		c := Config{C: 0.75, LnPower: k}
		for _, x := range xs {
			if got, want := c.scale(x), c.C*math.Pow(x, k); !same(got, want) {
				t.Fatalf("k=%v ln w=%v: scale = %v, C·Pow = %v", k, x, got, want)
			}
		}
	}
}
