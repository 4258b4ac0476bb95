package lowsensing

import (
	"io"
	"testing"

	"lowsensing/obs"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := Scenario{Seed: 1, Arrivals: BatchArrivals(256)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 256 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if tp := res.Throughput(); tp < 0.1 {
		t.Fatalf("throughput = %v", tp)
	}
	es := SummarizeEnergy(res)
	if es.Accesses.Mean <= 0 || es.Undelivered != 0 {
		t.Fatalf("energy summary = %+v", es)
	}
}

func TestMissingArrivalsFails(t *testing.T) {
	if _, err := (Scenario{Seed: 1}).Run(); err == nil {
		t.Fatal("missing arrivals accepted")
	}
}

func TestBadOptionSurfacesAtRun(t *testing.T) {
	batch := BatchArrivals(10)
	for _, tc := range []struct {
		what string
		sc   Scenario
	}{
		{"negative batch", Scenario{Arrivals: BatchArrivals(-5)}},
		{"invalid lsb config", Scenario{Arrivals: batch, Protocol: LowSensing(Config{C: 10, WMin: 8, LnPower: 3})}},
		{"invalid jam rate", Scenario{Arrivals: batch, Jammer: RandomJamming(2, 0)}},
		{"empty burst", Scenario{Arrivals: batch, Jammer: BurstJamming(5, 5)}},
		{"bad reactive target", Scenario{Arrivals: batch, Jammer: ReactiveJamming(-1, 0)}},
		{"bad bernoulli rate", Scenario{Arrivals: BernoulliArrivals(0, 1)}},
		{"bad poisson rate", Scenario{Arrivals: PoissonArrivals(-1, 1)}},
		{"bad AQT granularity", Scenario{Arrivals: QueueArrivals(0, 0.1, 5)}},
	} {
		if _, err := tc.sc.Run(); err == nil {
			t.Fatalf("%s accepted", tc.what)
		}
	}
}

func TestDeterminismViaSeed(t *testing.T) {
	run := func() Result {
		res, err := Scenario{Seed: 42, Arrivals: BatchArrivals(64), RetainPackets: true}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ActiveSlots != b.ActiveSlots || a.Completed != b.Completed {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestBaselineOptions(t *testing.T) {
	run := func(p ProtocolSpec) Result {
		t.Helper()
		res, err := Scenario{Seed: 2, Arrivals: BatchArrivals(128), Protocol: p, RetainPackets: true}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 128 {
			t.Fatalf("%s completed = %d", p.Kind, res.Completed)
		}
		return res
	}
	// BEB and sawtooth never listen.
	for _, p := range []ProtocolSpec{BEB(), Sawtooth()} {
		for _, pkt := range run(p).Packets {
			if pkt.Listens != 0 {
				t.Fatalf("%s listened", p.Kind)
			}
		}
	}
	run(MWU())
}

func TestJammingOptions(t *testing.T) {
	run := func(j JammerSpec) Result {
		t.Helper()
		res, err := Scenario{Seed: 3, Arrivals: BatchArrivals(64), Jammer: j}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 64 {
			t.Fatalf("%s completed = %d", j.Kind, res.Completed)
		}
		return res
	}
	if run(BurstJamming(0, 256)).JammedSlots == 0 {
		t.Fatal("no jams recorded")
	}
	run(RandomJamming(0.2, 0))
	if jams := run(ReactiveJamming(0, 10)).JammedSlots; jams != 10 {
		t.Fatalf("reactive jams = %d, want 10", jams)
	}
}

func TestQueueArrivalsAndCollector(t *testing.T) {
	col := &Collector{Every: 8}
	res, err := Scenario{
		Seed:     4,
		Arrivals: QueueArrivals(256, 0.1, 10),
		MaxSlots: 2560,
	}.Simulation(WithRecorder(col)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 250 {
		t.Fatalf("arrived = %d, want 10 windows x 25", res.Arrived)
	}
	if col.MaxBacklog() == 0 {
		t.Fatal("collector saw nothing")
	}
	if float64(col.MaxBacklog()) > 3*256 {
		t.Fatalf("backlog %d not O(S)", col.MaxBacklog())
	}
}

// TestTimelineAndCollectorsCompose: a timeline sink and several
// collectors attach as recorders side by side; with Every unset, each
// observes every resolved slot.
func TestTimelineAndCollectorsCompose(t *testing.T) {
	tl := obs.NewTimeline(io.Discard)
	col, col2 := &Collector{}, &Collector{}
	res, err := Scenario{Seed: 5, Arrivals: BatchArrivals(16)}.Simulation(
		WithRecorder(tl),
		WithRecorder(col),
		WithRecorder(col2),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16 {
		t.Fatalf("completed = %d", res.Completed)
	}
	succ, coll, empty, jammed := tl.Counts()
	slots := int(succ + coll + empty + jammed)
	if slots == 0 || len(col.Samples()) == 0 {
		t.Fatalf("hooks not all invoked: %d slots, %d samples", slots, len(col.Samples()))
	}
	if slots != len(col.Samples()) || len(col.Samples()) != len(col2.Samples()) {
		t.Fatalf("timeline %d slots vs collectors %d and %d samples",
			slots, len(col.Samples()), len(col2.Samples()))
	}
}

func TestCustomStationsOption(t *testing.T) {
	cfg := Config{C: 1, WMin: 128, LnPower: 3}
	f, err := LowSensing(cfg).Factory()
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Seed: 6, Arrivals: BatchArrivals(32)}
	res, err := sc.Simulation(WithStations(f)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 32 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// The same configuration as a spec is the same run: station recycling
	// (spec kinds only) is indistinguishable from fresh construction.
	sc.Protocol = LowSensing(cfg)
	spec, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Energy != res.Energy || spec.ActiveSlots != res.ActiveSlots {
		t.Fatal("WithStations run differs from the equivalent protocol spec")
	}
}

// TestSeedReachesSeededComponents: seeded components (arrival processes,
// random jammers) are constructed at Run time from Scenario.Seed, so the
// same seed repeats a run and a different seed changes it.
func TestSeedReachesSeededComponents(t *testing.T) {
	run := func(sc Scenario) Result {
		t.Helper()
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b Result) bool {
		return a.Arrived == b.Arrived && a.Completed == b.Completed &&
			a.ActiveSlots == b.ActiveSlots && a.JammedSlots == b.JammedSlots &&
			a.LastSlot == b.LastSlot && a.Energy == b.Energy
	}
	for _, sc := range []Scenario{
		{Arrivals: PoissonArrivals(0.2, 200)},
		{Arrivals: BernoulliArrivals(0.1, 100)},
		{Arrivals: QueueArrivals(128, 0.2, 4)},
		{Arrivals: BatchArrivals(64), Jammer: RandomJamming(0.2, 0)},
	} {
		sc.Seed = 7
		a, b := run(sc), run(sc)
		if !same(a, b) {
			t.Fatalf("%+v: same seed, different runs", sc)
		}
		sc.Seed = 0
		if same(a, run(sc)) {
			t.Fatalf("%+v: seed 7 and seed 0 ran identically", sc)
		}
	}
}

// TestPacketRetentionIsOptIn: default runs carry only the streaming
// accumulators; Scenario.RetainPackets materializes Packets and
// WithPacketSink streams every packet without retention.
func TestPacketRetentionIsOptIn(t *testing.T) {
	sc := Scenario{Seed: 1, Arrivals: BatchArrivals(64)}
	def, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if def.Packets != nil {
		t.Fatalf("default run retained %d packets", len(def.Packets))
	}
	if def.Energy.Packets() != 64 || def.MeanAccesses() <= 0 {
		t.Fatalf("accumulators missing: %d packets, mean %v", def.Energy.Packets(), def.MeanAccesses())
	}

	var sunk []PacketStats
	res, err := sc.Simulation(WithPacketSink(func(p PacketStats) { sunk = append(sunk, p) })).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != nil {
		t.Fatal("sink run retained packets")
	}
	if int64(len(sunk)) != res.Arrived {
		t.Fatalf("sink saw %d of %d packets", len(sunk), res.Arrived)
	}

	sc.RetainPackets = true
	ret, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ret.Packets)) != ret.Arrived {
		t.Fatalf("retained %d of %d packets", len(ret.Packets), ret.Arrived)
	}
	// Same seed: sink, retained, and accumulator views must agree.
	for _, p := range sunk {
		if ret.Packets[p.ID] != p {
			t.Fatalf("packet %d: sink %+v vs retained %+v", p.ID, p, ret.Packets[p.ID])
		}
	}
	if ret.Energy != def.Energy {
		t.Fatal("accumulators differ between retention modes")
	}
}
