package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

func runWithCollector(t *testing.T, c *Collector, n int64) sim.Result {
	t.Helper()
	e, err := sim.NewEngine(sim.Params{
		Seed:       21,
		Arrivals:   arrivals.NewBatch(n),
		NewStation: core.MustFactory(core.Default()),
		MaxSlots:   1 << 22,
		Recorder:   c,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCollectorSamples(t *testing.T) {
	c := &Collector{}
	r := runWithCollector(t, c, 64)
	if r.Completed != 64 {
		t.Fatalf("completed = %d", r.Completed)
	}
	samples := c.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	first := samples[0]
	if first.Arrived != 64 {
		t.Fatalf("first sample arrived = %d", first.Arrived)
	}
	if first.Backlog > 64 || first.Backlog < 63 {
		t.Fatalf("first sample backlog = %d", first.Backlog)
	}
	if first.Contention <= 0 {
		t.Fatal("contention not positive at start")
	}
	last := samples[len(samples)-1]
	if last.Backlog != 0 {
		t.Fatalf("final backlog = %d", last.Backlog)
	}
	if last.Potential.Phi != 0 {
		t.Fatalf("final potential = %v", last.Potential.Phi)
	}
	// Slots strictly increase.
	for i := 1; i < len(samples); i++ {
		if samples[i].Slot <= samples[i-1].Slot {
			t.Fatalf("sample slots not increasing at %d", i)
		}
	}
}

func TestCollectorEveryThins(t *testing.T) {
	dense := &Collector{}
	runWithCollector(t, dense, 64)
	sparse := &Collector{Every: 50}
	runWithCollector(t, sparse, 64)
	if len(sparse.Samples()) >= len(dense.Samples()) {
		t.Fatalf("thinning failed: %d vs %d", len(sparse.Samples()), len(dense.Samples()))
	}
	for i := 1; i < len(sparse.Samples()); i++ {
		if sparse.Samples()[i].Slot-sparse.Samples()[i-1].Slot < 50 {
			t.Fatalf("samples closer than Every: %d then %d",
				sparse.Samples()[i-1].Slot, sparse.Samples()[i].Slot)
		}
	}
}

func TestMaxBacklogAndMinImplicit(t *testing.T) {
	c := &Collector{}
	runWithCollector(t, c, 128)
	if mb := c.MaxBacklog(); mb < 120 || mb > 128 {
		t.Fatalf("max backlog = %d", mb)
	}
	if m := c.MinImplicitThroughput(); m <= 0 || m > 1.01 {
		t.Fatalf("min implicit throughput = %v", m)
	}
	empty := &Collector{}
	if empty.MinImplicitThroughput() != 1 || empty.MaxBacklog() != 0 {
		t.Fatal("empty collector defaults wrong")
	}
}

func TestSeriesExtraction(t *testing.T) {
	c := &Collector{}
	runWithCollector(t, c, 32)
	n := len(c.Samples())
	for _, name := range []string{"slot", "backlog", "implicit", "contention", "phi", "potN", "potH", "potL"} {
		s := c.Series(name)
		if len(s) != n {
			t.Fatalf("series %q length %d, want %d", name, len(s), n)
		}
	}
	// phi must equal the weighted sum of its parts at every sample.
	p := core.DefaultPotentialParams()
	for i, s := range c.Samples() {
		want := p.Alpha1*s.Potential.N + p.Alpha2*s.Potential.H + p.Alpha3*s.Potential.L
		if diff := want - s.Potential.Phi; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("sample %d: phi inconsistent", i)
		}
	}
}

func TestSeriesUnknownPanics(t *testing.T) {
	c := &Collector{}
	runWithCollector(t, c, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series did not panic")
		}
	}()
	c.Series("nope")
}

func TestSummarizeEnergy(t *testing.T) {
	c := &Collector{}
	r := runWithCollector(t, c, 64)
	es := SummarizeEnergy(r)
	if es.Undelivered != 0 {
		t.Fatalf("undelivered = %d", es.Undelivered)
	}
	if es.Sends.N != 64 || es.Accesses.N != 64 || es.Latency.N != 64 {
		t.Fatalf("summary sizes: %+v", es)
	}
	// Every packet sends at least once (its success).
	if es.Sends.Min < 1 {
		t.Fatalf("min sends = %v", es.Sends.Min)
	}
	// Accesses = sends + listens, so the means must add up.
	if diff := es.Accesses.Mean - es.Sends.Mean - es.Listens.Mean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("access mean %v != sends %v + listens %v", es.Accesses.Mean, es.Sends.Mean, es.Listens.Mean)
	}
	if es.Latency.Min < 1 {
		t.Fatalf("min latency = %v", es.Latency.Min)
	}
}

func TestEnergyModelPacketJoules(t *testing.T) {
	m := EnergyModel{SendJ: 10, ListenJ: 1, SleepJ: 0.5}
	// Packet alive slots 0..9 (10 slots): 2 sends, 3 listens, 5 sleeps.
	p := sim.PacketStats{Arrival: 0, Departure: 9, Sends: 2, Listens: 3}
	want := 2*10.0 + 3*1.0 + 5*0.5
	if got := m.PacketJoules(p, 100); got != want {
		t.Fatalf("PacketJoules = %v, want %v", got, want)
	}
	// Undelivered packet: alive through lastSlot.
	p2 := sim.PacketStats{Arrival: 5, Departure: -1, Sends: 1, Listens: 0}
	want2 := 10.0 + 5*0.5 // alive slots 5..10 = 6, sleeping 5
	if got := m.PacketJoules(p2, 10); got != want2 {
		t.Fatalf("undelivered PacketJoules = %v, want %v", got, want2)
	}
}

func TestEnergyModelRunJoules(t *testing.T) {
	m := EnergyModel{SendJ: 1, ListenJ: 1}
	r := sim.Result{
		LastSlot: 10,
		Packets: []sim.PacketStats{
			{Arrival: 0, Departure: 0, Sends: 1},
			{Arrival: 0, Departure: 2, Sends: 1, Listens: 2},
		},
	}
	total, mean := m.RunJoules(r)
	if total != 4 || mean != 2 {
		t.Fatalf("RunJoules = %v, %v", total, mean)
	}
	if tot, mean := m.RunJoules(sim.Result{}); tot != 0 || mean != 0 {
		t.Fatal("empty run joules nonzero")
	}
}

func TestDefaultEnergyModelOrdering(t *testing.T) {
	m := DefaultEnergyModel()
	if !(m.SendJ > 0 && m.ListenJ > 0 && m.SleepJ > 0) {
		t.Fatalf("non-positive costs: %+v", m)
	}
	if m.SleepJ >= m.ListenJ {
		t.Fatal("sleeping should be far cheaper than listening")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty = %v", got)
	}
	if got := JainIndex([]float64{5, 5, 5, 5}); got != 1 {
		t.Fatalf("equal = %v", got)
	}
	if got := JainIndex([]float64{0, 0, 0}); got != 1 {
		t.Fatalf("all-zero = %v", got)
	}
	// One packet takes everything: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); got != 0.25 {
		t.Fatalf("monopoly = %v, want 0.25", got)
	}
	// Mild skew sits in between.
	got := JainIndex([]float64{1, 2, 3, 4})
	if got <= 0.25 || got >= 1 {
		t.Fatalf("skewed = %v", got)
	}
}

func TestLatencySample(t *testing.T) {
	r := sim.Result{Packets: []sim.PacketStats{
		{Arrival: 0, Departure: 4},
		{Arrival: 2, Departure: -1},
		{Arrival: 3, Departure: 3},
	}}
	got := LatencySample(r)
	if len(got) != 2 || got[0] != 5 || got[1] != 1 {
		t.Fatalf("latencies = %v", got)
	}
}

func TestSummarizeEnergyUndelivered(t *testing.T) {
	r := sim.Result{Packets: []sim.PacketStats{
		{Arrival: 0, Departure: 5, Sends: 2, Listens: 3},
		{Arrival: 0, Departure: -1, Sends: 7, Listens: 1},
	}}
	es := SummarizeEnergy(r)
	if es.Undelivered != 1 {
		t.Fatalf("undelivered = %d", es.Undelivered)
	}
	if es.Latency.N != 1 || es.Latency.Mean != 6 {
		t.Fatalf("latency summary = %+v", es.Latency)
	}
	if es.Accesses.Max != 8 {
		t.Fatalf("max accesses = %v", es.Accesses.Max)
	}
}

// TestCollectorWindowSamples checks the window summary of every sample:
// the algorithm's floor, min <= median <= max, an empty final sample, and
// growth beyond the floor under a 64-packet batch.
func TestCollectorWindowSamples(t *testing.T) {
	c := &Collector{}
	runWithCollector(t, c, 64)
	samples := c.Samples()
	cfg := core.Default()
	var maxEver float64
	for i, s := range samples {
		if s.Active > 0 {
			if s.WMin < cfg.WMin {
				t.Fatalf("sample %d: wmin %v below algorithm floor", i, s.WMin)
			}
			if s.WMin > s.WMedian || s.WMedian > s.WMax {
				t.Fatalf("sample %d: order violated: %+v", i, s)
			}
		}
		if int64(s.Active) != s.Backlog {
			t.Fatalf("sample %d: %d windows for a backlog of %d LSB stations", i, s.Active, s.Backlog)
		}
		maxEver = max(maxEver, s.WMax)
	}
	if last := samples[len(samples)-1]; last.Active != 0 || last.WMax != 0 {
		t.Fatalf("final sample = %+v", last)
	}
	if maxEver <= cfg.WMin {
		t.Fatalf("windows never grew: %v", maxEver)
	}
}

// TestCollectorWindowEvery: thinning drops samples without changing them;
// every thinned sample, window summary included, is the dense sample of
// the same slot.
func TestCollectorWindowEvery(t *testing.T) {
	dense := &Collector{}
	runWithCollector(t, dense, 32)
	sparse := &Collector{Every: 40}
	runWithCollector(t, sparse, 32)
	if len(sparse.Samples()) >= len(dense.Samples()) {
		t.Fatalf("thinning failed: %d vs %d", len(sparse.Samples()), len(dense.Samples()))
	}
	bySlot := map[int64]Sample{}
	for _, s := range dense.Samples() {
		bySlot[s.Slot] = s
	}
	for _, s := range sparse.Samples() {
		if d, ok := bySlot[s.Slot]; !ok || d != s {
			t.Fatalf("thinned sample %+v differs from the dense one %+v", s, d)
		}
	}
}

// TestCollectorWindowSeries: the window series have one entry per sample,
// carry the sample fields, and an unknown name still panics.
func TestCollectorWindowSeries(t *testing.T) {
	c := &Collector{}
	runWithCollector(t, c, 16)
	samples := c.Samples()
	for _, name := range []string{"active", "wmin", "wmedian", "wmax", "slot"} {
		if got := len(c.Series(name)); got != len(samples) {
			t.Fatalf("series %q length %d, want %d", name, got, len(samples))
		}
	}
	active, wmin, wmed, wmax := c.Series("active"), c.Series("wmin"), c.Series("wmedian"), c.Series("wmax")
	for i, s := range samples {
		if active[i] != float64(s.Active) || wmin[i] != s.WMin || wmed[i] != s.WMedian || wmax[i] != s.WMax {
			t.Fatalf("sample %d: series disagree with %+v", i, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series did not panic")
		}
	}()
	c.Series("nope")
}

// TestSelectKth checks the median selection against a sort, including
// duplicates and every rank.
func TestSelectKth(t *testing.T) {
	inputs := [][]float64{
		{5},
		{2, 1},
		{3, 3, 3},
		{9, 1, 8, 2, 7, 3, 6, 4, 5},
		{1, 5, 1, 5, 1, 5, 2, 2},
		{15.7, 8, 15.7, 8, 15.7, 9},
	}
	for _, in := range inputs {
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		for k := range in {
			xs := append([]float64(nil), in...)
			if got := selectKth(xs, k); got != sorted[k] {
				t.Errorf("selectKth(%v, %d) = %v, want %v", in, k, got, sorted[k])
			}
		}
	}
}

// TestWindowTrajectoryGolden pins the window trajectory of a jammed
// 6-packet batch (seed 2, slots [0, 64) jammed): the resolved-slot
// samples thinned to 16 evenly spaced rows, in the format the ASCII trace
// tool printed them before the Collector took the window summary over.
func TestWindowTrajectoryGolden(t *testing.T) {
	const want = `      slot   active      w_min   w_median      w_max
         0        6        8.0       15.7       15.7
        11        6       98.3      198.2      198.2
        24        6      273.1      655.6     1111.7
        36        6      655.6     1428.7     1822.1
        53        6     1111.7     2903.4     2903.4
        73        6      678.3     3631.6     4517.7
        92        6       36.7     2334.3     4517.7
       104        5      292.1     1855.7     3650.2
       132        5      112.8      683.3     3650.2
       147        5        8.0      402.1     2346.8
       158        4       37.1      696.8     1865.9
       176        2      303.6     1865.9     1865.9
       195        2        8.8      901.6      901.6
       208        2        8.0      164.3      164.3
       231        1        8.0        8.0        8.0
       251        0        0.0        0.0        0.0
`
	iv, err := jamming.NewInterval(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := &Collector{}
	e, err := sim.NewEngine(sim.Params{
		Seed:          2,
		Arrivals:      arrivals.NewBatch(6),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
		MaxSlots:      1 << 24,
		Jammer:        iv,
		Recorder:      c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	samples := c.Samples()
	const rows = 16
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %8s %10s %10s %10s\n", "slot", "active", "w_min", "w_median", "w_max")
	for i := 0; i < rows; i++ {
		s := samples[i*(len(samples)-1)/(rows-1)]
		fmt.Fprintf(&b, "%10d %8d %10.1f %10.1f %10.1f\n", s.Slot, s.Active, s.WMin, s.WMedian, s.WMax)
	}
	if b.String() != want {
		t.Fatalf("window trajectory diverged\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestCollectorInsideComposite: a Collector wrapped in obs composites is
// still bound and samples the thinned slot stream.
func TestCollectorInsideComposite(t *testing.T) {
	direct, nested := &Collector{}, &Collector{}
	runWithCollector(t, direct, 32)
	e, err := sim.NewEngine(sim.Params{
		Seed:       21,
		Arrivals:   arrivals.NewBatch(32),
		NewStation: core.MustFactory(core.Default()),
		MaxSlots:   1 << 22,
		Recorder:   obs.Multi(obs.SlotRange(nested, 0, 1<<40), obs.NewRing(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Samples(), nested.Samples()) {
		t.Fatalf("nested collector diverged: %d vs %d samples", len(nested.Samples()), len(direct.Samples()))
	}
}

func TestCollectorUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound Collector sampled without panicking")
		}
	}()
	(&Collector{}).RecordSlot(obs.SlotEvent{})
}
