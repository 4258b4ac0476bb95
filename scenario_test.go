package lowsensing_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"lowsensing"
)

// sameResult compares the scalar and accumulator parts of two results.
func sameResult(a, b lowsensing.Result) bool {
	return a.Arrived == b.Arrived && a.Completed == b.Completed &&
		a.ActiveSlots == b.ActiveSlots && a.JammedSlots == b.JammedSlots &&
		a.LastSlot == b.LastSlot && a.Truncated == b.Truncated &&
		a.Energy == b.Energy
}

// TestScenarioJSONRoundTrip is the acceptance contract: marshal →
// unmarshal → identical run output, for scenarios covering every spec
// branch.
func TestScenarioJSONRoundTrip(t *testing.T) {
	scenarios := map[string]lowsensing.Scenario{
		"batch-default": {
			Seed:     1,
			Arrivals: lowsensing.BatchArrivals(64),
		},
		"bernoulli-beb-burst": {
			Seed:     7,
			Arrivals: lowsensing.BernoulliArrivals(0.1, 200),
			Protocol: lowsensing.BEB(),
			Jammer:   lowsensing.BurstJamming(0, 64),
		},
		"poisson-lsb-random-jam": {
			Seed:     11,
			MaxSlots: 1 << 18,
			Arrivals: lowsensing.PoissonArrivals(0.2, 300),
			Protocol: lowsensing.LowSensing(lowsensing.Config{C: 1, WMin: 128, LnPower: 3}),
			Jammer:   lowsensing.RandomJamming(0.1, 50),
		},
		"aqt-sawtooth": {
			Seed:     13,
			Arrivals: lowsensing.QueueArrivals(128, 0.2, 4),
			Protocol: lowsensing.Sawtooth(),
			MaxSlots: 1 << 18,
		},
		"reactive-retained": {
			Seed:          3,
			Arrivals:      lowsensing.BatchArrivals(32),
			Jammer:        lowsensing.ReactiveJamming(0, 8),
			RetainPackets: true,
		},
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := lowsensing.ParseScenario(data)
			if err != nil {
				t.Fatalf("round trip of %s failed: %v", data, err)
			}
			if !reflect.DeepEqual(back, sc) {
				t.Fatalf("scenario changed through JSON:\n%+v\nvs\n%+v\n(json: %s)", back, sc, data)
			}
			want, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(want, got) {
				t.Fatalf("round-tripped scenario runs differently:\n%+v\nvs\n%+v", got, want)
			}
			if sc.RetainPackets && len(got.Packets) != int(got.Arrived) {
				t.Fatalf("retained %d of %d packets", len(got.Packets), got.Arrived)
			}
		})
	}
}

// TestScenarioMatchesOptions: a component hook replaces the matching spec
// field (Simulation.Scenario shows it cleared), and hooks wrapping the
// instances the specs build are the same run as the specs themselves.
func TestScenarioMatchesOptions(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     9,
		Arrivals: lowsensing.BernoulliArrivals(0.15, 256),
		Protocol: lowsensing.BEB(),
		Jammer:   lowsensing.RandomJamming(0.1, 0),
		MaxSlots: 1 << 19,
	}
	if got := sc.Simulation().Scenario(); !reflect.DeepEqual(got, sc) {
		t.Fatalf("hookless simulation altered the scenario:\n%+v\nvs\n%+v", got, sc)
	}
	src, err := sc.Arrivals.Source(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := sc.Protocol.Factory()
	if err != nil {
		t.Fatal(err)
	}
	jam, err := sc.Jammer.Jammer(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	hooked := sc.Simulation(
		lowsensing.WithArrivals(src),
		lowsensing.WithStations(factory),
		lowsensing.WithJammer(jam),
	)
	want := lowsensing.Scenario{Seed: 9, MaxSlots: 1 << 19}
	if got := hooked.Scenario(); !reflect.DeepEqual(got, want) {
		t.Fatalf("hooks did not clear the replaced spec fields:\n%+v\nvs\n%+v", got, want)
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := hooked.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Fatalf("scenario and hooked runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestScenarioRerun: scenario-backed simulations reconstruct every
// component per Run, so running twice is allowed and identical.
func TestScenarioRerun(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     5,
		Arrivals: lowsensing.PoissonArrivals(0.2, 100),
		Jammer:   lowsensing.RandomJamming(0.2, 0),
	}
	sim := sc.Simulation()
	a, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run()
	if err != nil {
		t.Fatalf("second Run of a scenario-backed simulation failed: %v", err)
	}
	if !sameResult(a, b) {
		t.Fatalf("re-run differs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestScenarioValidate(t *testing.T) {
	params := map[string]float64{"w0": -1}
	bad := []lowsensing.Scenario{
		{},                                      // no arrivals
		{Arrivals: lowsensing.BatchArrivals(0)}, // empty batch
		{Arrivals: lowsensing.BernoulliArrivals(2, 10)},                                                                         // rate > 1
		{Arrivals: lowsensing.ArrivalsSpec{Kind: "nope"}},                                                                       // unknown kind
		{Arrivals: lowsensing.BatchArrivals(8), Protocol: lowsensing.ProtocolSpec{Kind: "nope"}},                                // unknown protocol
		{Arrivals: lowsensing.BatchArrivals(8), Protocol: lowsensing.LowSensing(lowsensing.Config{C: 10, WMin: 8, LnPower: 3})}, // invalid lsb params
		{Arrivals: lowsensing.BatchArrivals(8), Jammer: lowsensing.JammerSpec{Kind: "nope"}},                                    // unknown jammer
		{Arrivals: lowsensing.BatchArrivals(8), Jammer: lowsensing.BurstJamming(5, 5)},                                          // empty burst
		{Arrivals: lowsensing.BatchArrivals(8), MaxSlots: -5},                                                                   // negative slot cap
		{Arrivals: lowsensing.PoissonArrivals(1e308, 1)},                                                                        // unsampleable rate
		// LSB access probability at WMin underflows to 0.
		{Arrivals: lowsensing.BatchArrivals(4), Protocol: lowsensing.LowSensing(lowsensing.Config{C: 0.5, WMin: 2.5, LnPower: 10000})},
		{Arrivals: lowsensing.BatchArrivals(4), Protocol: lowsensing.LowSensing(lowsensing.Config{C: 5e-324, WMin: 3, LnPower: 0})},
		// Built-in kinds take their typed fields and reject params; one
		// case per registry. Registered kinds keep reading params (see
		// ExampleRegisterProtocol and TestSweepPointParamsIsolated).
		{Arrivals: lowsensing.ArrivalsSpec{Kind: "batch", N: 8, Params: params}},
		{Arrivals: lowsensing.BatchArrivals(8), Protocol: lowsensing.ProtocolSpec{Kind: "beb", Params: params}},
		{Arrivals: lowsensing.BatchArrivals(8), Jammer: lowsensing.JammerSpec{Kind: "burst", To: 8, Params: params}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Fatalf("bad scenario %d accepted: %+v", i, sc)
		}
		if _, err := sc.Run(); err == nil {
			t.Fatalf("bad scenario %d ran: %+v", i, sc)
		}
	}
	err := bad[len(bad)-2].Validate()
	if msg := err.Error(); !strings.Contains(msg, `"beb"`) || !strings.Contains(msg, "typed fields") {
		t.Fatalf("params error does not name the kind and its typed fields: %v", err)
	}
	good := lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseScenarioStrict(t *testing.T) {
	rejected := map[string]string{
		"unknown top-level field": `{"arrivals": {"kind": "batch", "n": 8}, "typo_field": 1}`,
		"unknown nested field":    `{"arrivals": {"kind": "batch", "count": 8}}`,
		"invalid scenario":        `{"arrivals": {"kind": "batch"}}`,
		// Run would reject both (the first by panicking in the Poisson
		// sampler), so parsing must.
		"unsampleable poisson rate": `{"arrivals": {"kind": "poisson", "rate": 1e308, "n": 1}}`,
		"negative max_slots":        `{"arrivals": {"kind": "batch", "n": 4}, "max_slots": -5}`,
		// The LSB access probability at WMin underflows to 0, which Run
		// would hit as a geometric sampler panic.
		"lsb access prob underflows": `{"arrivals":{"kind":"batch","n":4},"protocol":{"kind":"lsb","config":{"C":0.5,"WMin":2.5,"LnPower":10000}}}`,
		"lsb denormal C":             `{"arrivals":{"kind":"batch","n":4},"protocol":{"kind":"lsb","config":{"C":5e-324,"WMin":3,"LnPower":0}}}`,
		// Slot spans past 2^60 could push slot arithmetic past MaxInt64:
		// a crash restart slot wrapped negative, and the wheel panicked.
		"crash down past 2^60":           `{"arrivals":{"kind":"batch","n":4},"faults":{"kind":"crash","rate":1,"down":9223372036854775807}}`,
		"flaky down past 2^60":           `{"arrivals":{"kind":"batch","n":4},"faults":{"kind":"flaky","rate":1,"down":1152921504606846977}}`,
		"max_slots past 2^60":            `{"arrivals":{"kind":"batch","n":1},"protocol":{"kind":"beb"},"jammer":{"kind":"burst","from":0,"to":9000000000000000000},"max_slots":9000000000000000000}`,
		"flash-crowd lifetime past 2^60": `{"arrivals":{"kind":"batch","n":4},"churn":{"kind":"flash-crowd","slot":1,"n":2,"lifetime":1152921504606846977}}`,
		"epochs period past 2^60":        `{"arrivals":{"kind":"batch","n":4},"churn":{"kind":"epochs","period":1152921504606846977}}`,
		// Run would panic building the join stream's Poisson sampler.
		"join-leave rate 1e300": `{"arrivals":{"kind":"batch","n":2},"churn":{"kind":"poisson-join-leave","rate":1e300,"n":4}}`,
		"join-leave rate 2^52":  `{"arrivals":{"kind":"batch","n":2},"churn":{"kind":"poisson-join-leave","rate":4503599627370496,"n":4}}`,
	}
	for name, spec := range rejected {
		if _, err := lowsensing.ParseScenario([]byte(spec)); err == nil {
			t.Errorf("%s accepted: %s", name, spec)
		}
	}
	sc, err := lowsensing.ParseScenario([]byte(`{
		"seed": 1,
		"arrivals": {"kind": "batch", "n": 32},
		"protocol": {"kind": "lsb"},
		"jammer": {"kind": "burst", "to": 64}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 32 || r.JammedSlots == 0 {
		t.Fatalf("parsed scenario result: %+v", r)
	}
}

// TestWindowsSaturate runs the window-based baselines into windows past
// 2^62 within the accepted slot bounds. An uncapped BEB window used to
// double past MaxInt64 (a sampler panic: n = 256, seed 4 is a batch where
// one jammed packet reaches that many collisions before slot 2^60), and
// poly's float window of 2^63 used to convert to MinInt64 and clamp to 1,
// so every packet sent in every slot. Both windows now saturate at 2^62.
func TestWindowsSaturate(t *testing.T) {
	run := func(spec string) lowsensing.Result {
		t.Helper()
		sc, err := lowsensing.ParseScenario([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	beb := run(`{"seed":4,"arrivals":{"kind":"batch","n":256},"protocol":{"kind":"beb"},
		"jammer":{"kind":"burst","from":0,"to":1152921504606846976},"max_slots":1152921504606846976}`)
	if beb.Completed != 0 || !beb.Truncated {
		t.Fatalf("fully jammed BEB run: completed %d, truncated %v", beb.Completed, beb.Truncated)
	}
	poly := run(`{"arrivals":{"kind":"batch","n":64},"protocol":{"kind":"poly","w0":2,"alpha":62},"max_slots":20000}`)
	if sends := poly.Energy.Sends.Sum; sends > 1000 {
		t.Fatalf("poly alpha=62 sent %d times in 20000 slots; its window must back off, not collapse to 1", sends)
	}
}

// TestTinyPoissonRatesRun runs Poisson arrivals and Poisson join churn at
// rate 1e-12. Rejecting zero batch sizes takes about 1/rate draws per
// batch, so rate 1e-8 used to take 19 s and rate 1e-12 hours; tiny rates
// now invert the zero-truncated distribution with one uniform per batch.
func TestTinyPoissonRatesRun(t *testing.T) {
	for spec, want := range map[string]int64{
		`{"seed":3,"arrivals":{"kind":"poisson","rate":1e-12,"n":4},"max_slots":1152921504606846976}`: 4,
		`{"seed":3,"arrivals":{"kind":"batch","n":2},"max_slots":1152921504606846976,
			"churn":{"kind":"poisson-join-leave","rate":1e-12,"n":4,"leave_rate":0}}`: 6,
	} {
		sc, err := lowsensing.ParseScenario([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan lowsensing.Result, 1)
		go func() {
			r, err := sc.Run()
			if err != nil {
				t.Error(err)
			}
			done <- r
		}()
		select {
		case r := <-done:
			if r.Completed != want || r.Arrived != want {
				t.Fatalf("%s: arrived %d, completed %d, want %d each", spec, r.Arrived, r.Completed, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", spec)
		}
	}
}

// TestProtocolSpecKinds runs every protocol kind end to end on a small
// batch through the declarative surface.
func TestProtocolSpecKinds(t *testing.T) {
	protos := []lowsensing.ProtocolSpec{
		{}, // default = LSB
		lowsensing.LowSensing(lowsensing.DefaultConfig()),
		lowsensing.BEB(),
		lowsensing.MWU(),
		lowsensing.Sawtooth(),
		lowsensing.Aloha(1.0 / 32),
		lowsensing.Poly(2, 2),
		lowsensing.GenieAloha(),
	}
	for _, p := range protos {
		sc := lowsensing.Scenario{
			Seed:     2,
			Arrivals: lowsensing.BatchArrivals(32),
			Protocol: p,
			MaxSlots: 1 << 18,
		}
		r, err := sc.Run()
		if err != nil {
			t.Fatalf("%q: %v", p.Kind, err)
		}
		if r.Completed == 0 {
			t.Fatalf("%q delivered nothing", p.Kind)
		}
	}
}

// TestSimulationReuse is the regression test for the latent reuse bug:
// WithArrivals/WithJammer close over stateful instances, so a second Run
// would silently reuse an exhausted source or spent jam budget. It must
// fail with ErrReused instead.
func TestSimulationReuse(t *testing.T) {
	base := lowsensing.Scenario{Seed: 3, Arrivals: lowsensing.BatchArrivals(16)}
	mkArrivals := func() lowsensing.ArrivalSource {
		s, err := base.Arrivals.Source(3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sim := lowsensing.Scenario{Seed: 3}.Simulation(lowsensing.WithArrivals(mkArrivals()))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); !errors.Is(err, lowsensing.ErrReused) {
		t.Fatalf("second Run with a custom arrival source: err = %v, want ErrReused", err)
	}

	// Stateful jammer: budget spent by the first run.
	jam, err2 := lowsensing.ReactiveJamming(0, 8).Jammer(3)
	if err2 != nil {
		t.Fatal(err2)
	}
	sim2 := base.Simulation(lowsensing.WithJammer(jam))
	if _, err := sim2.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(); !errors.Is(err, lowsensing.ErrReused) {
		t.Fatalf("second Run with a custom jammer: err = %v, want ErrReused", err)
	}
	if !strings.Contains(lowsensing.ErrReused.Error(), "Scenario") {
		t.Fatal("ErrReused should point at the Scenario escape hatch")
	}

	// A failed Run consumes nothing, so retries keep reporting the real
	// configuration error instead of ErrReused.
	jam2, err := lowsensing.ReactiveJamming(0, 8).Jammer(3)
	if err != nil {
		t.Fatal(err)
	}
	broken := lowsensing.Scenario{}.Simulation(lowsensing.WithJammer(jam2)) // no arrivals
	for i := 0; i < 2; i++ {
		_, err := broken.Run()
		if err == nil {
			t.Fatal("misconfigured simulation ran")
		}
		if errors.Is(err, lowsensing.ErrReused) {
			t.Fatalf("attempt %d: configuration error masked by ErrReused", i)
		}
	}

	// Spec-configured simulations rebuild their components and may re-run.
	withSpec := base
	withSpec.Jammer = lowsensing.ReactiveJamming(0, 8)
	sim3 := withSpec.Simulation()
	a, err := sim3.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim3.Run()
	if err != nil {
		t.Fatalf("spec-backed simulation refused to re-run: %v", err)
	}
	if !sameResult(a, b) {
		t.Fatal("spec-backed re-run differs")
	}
}

// TestCustomHooksRejectClasses: each class of a multi-class scenario brings
// its own arrivals and protocol, so custom arrival or station hooks cannot
// combine with Classes; observer hooks can (see
// TestChurnFaultsAndClassHooks).
func TestCustomHooksRejectClasses(t *testing.T) {
	mc := lowsensing.Scenario{
		Seed: 1,
		Classes: []lowsensing.ClassSpec{
			{Name: "a", Arrivals: lowsensing.BatchArrivals(4)},
		},
	}
	src, err := lowsensing.BatchArrivals(4).Source(1)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := lowsensing.BEB().Factory()
	if err != nil {
		t.Fatal(err)
	}
	for name, hook := range map[string]lowsensing.Option{
		"WithArrivals": lowsensing.WithArrivals(src),
		"WithStations": lowsensing.WithStations(factory),
	} {
		_, err := mc.Simulation(hook).Run()
		if err == nil || !strings.Contains(err.Error(), "Classes") {
			t.Fatalf("%s combined with Classes: err = %v", name, err)
		}
	}
}
