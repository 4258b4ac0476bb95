package lowsensing_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"lowsensing"
	"lowsensing/internal/runner"
)

// twoAxisSweep is the acceptance-criteria sweep: 2 axes (batch size x
// protocol) with replications.
func twoAxisSweep(workers int) *lowsensing.Sweep {
	return lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(16)}).
		ID("test-sweep").
		Seed(20240617).
		Reps(3).
		Workers(workers).
		VaryInt("n", []int64{16, 32, 64}, func(sc *lowsensing.Scenario, n int64) {
			sc.Arrivals = lowsensing.BatchArrivals(n)
		}).
		VaryProtocol(lowsensing.ProtocolSpec{}, lowsensing.BEB())
}

func TestSweepGridAndAggregates(t *testing.T) {
	sw := twoAxisSweep(0)
	points := sw.Points()
	if len(points) != 6 {
		t.Fatalf("grid has %d points, want 3x2", len(points))
	}
	// Row-major: first axis (n) outermost.
	wantLabels := []string{
		"n=16 protocol=lsb", "n=16 protocol=beb",
		"n=32 protocol=lsb", "n=32 protocol=beb",
		"n=64 protocol=lsb", "n=64 protocol=beb",
	}
	for i, p := range points {
		if p.String() != wantLabels[i] {
			t.Fatalf("point %d = %q, want %q", i, p, wantLabels[i])
		}
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
	}

	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	ns := []int64{16, 16, 32, 32, 64, 64}
	for i, pr := range results {
		if pr.Reps != 3 {
			t.Fatalf("point %d aggregated %d reps", i, pr.Reps)
		}
		if pr.Arrived != 3*ns[i] || pr.Completed != 3*ns[i] {
			t.Fatalf("point %d: arrived %d completed %d, want %d", i, pr.Arrived, pr.Completed, 3*ns[i])
		}
		if pr.DeliveredFrac() != 1 {
			t.Fatalf("point %d delivered %v", i, pr.DeliveredFrac())
		}
		if pr.Energy.Packets() != 3*ns[i] {
			t.Fatalf("point %d energy pooled %d packets", i, pr.Energy.Packets())
		}
		if pr.Throughput.N() != 3 || pr.Throughput.Mean() <= 0 {
			t.Fatalf("point %d throughput stats %+v", i, pr.Throughput)
		}
		if pr.Energy.Accesses.Quantile(0.99) <= 0 {
			t.Fatalf("point %d has no quantile data", i)
		}
	}

	// Each (point, rep) must equal the standalone scenario run at the
	// derived seed — the sweep is nothing but DeriveSeed + Scenario.Run.
	sc := points[3].Scenario // n=32, beb
	sc.Seed = runner.DeriveSeed(20240617, "test-sweep", 3, 1)
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var manual lowsensing.PointResult
	for rep := 0; rep < 3; rep++ {
		s := points[3].Scenario
		s.Seed = runner.DeriveSeed(20240617, "test-sweep", 3, rep)
		rr, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep == 1 && !sameResult(rr, r) {
			t.Fatal("derived-seed rerun differs")
		}
		manual.Energy.Merge(&rr.Energy)
	}
	if manual.Energy != results[3].Energy {
		t.Fatal("sweep aggregate differs from manually merged replications")
	}
}

// TestSweepDeterministicAcrossWorkers: aggregates are a pure function of
// the sweep definition, whatever the worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base, err := twoAxisSweep(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		got, err := twoAxisSweep(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if base[i].Energy != got[i].Energy || base[i].Throughput != got[i].Throughput ||
				base[i].Arrived != got[i].Arrived || base[i].Completed != got[i].Completed {
				t.Fatalf("workers=%d: point %d differs", workers, i)
			}
		}
	}
}

// TestSweepZeroRetention: sweep replications never retain per-packet
// tables, even when the base scenario asks for retention.
func TestSweepZeroRetention(t *testing.T) {
	sw := lowsensing.NewSweep(lowsensing.Scenario{
		Arrivals:      lowsensing.BatchArrivals(32),
		RetainPackets: true,
	}).Reps(2)
	for _, p := range sw.Points() {
		if p.Scenario.RetainPackets {
			// Points() reflects the base verbatim; execution strips it.
			break
		}
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("axis-free sweep has %d points", len(results))
	}
	// The aggregate carries only streaming stats; per-packet data has no
	// field to live in, and the pooled accumulators must still be complete.
	if results[0].Energy.Packets() != 64 {
		t.Fatalf("pooled %d packets, want 64", results[0].Energy.Packets())
	}
}

func TestSweepStreamOrderAndErrors(t *testing.T) {
	var got []string
	err := twoAxisSweep(4).Stream(func(pr lowsensing.PointResult) error {
		got = append(got, pr.Point.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != "n=16 protocol=lsb" || got[5] != "n=64 protocol=beb" {
		t.Fatalf("stream order: %v", got)
	}

	// Emit errors cancel the sweep.
	boom := errors.New("boom")
	calls := 0
	err = twoAxisSweep(4).Stream(func(lowsensing.PointResult) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error", calls)
	}

	// Invalid scenarios fail the corresponding job.
	err = lowsensing.NewSweep(lowsensing.Scenario{}).Stream(func(lowsensing.PointResult) error { return nil })
	if err == nil {
		t.Fatal("sweep over an invalid scenario succeeded")
	}
}

func TestSweepBuilderValidation(t *testing.T) {
	if _, err := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}).Reps(0).Run(); err == nil {
		t.Fatal("Reps(0) accepted")
	}
	if _, err := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}).Workers(-1).Run(); err == nil {
		t.Fatal("Workers(-1) accepted")
	}
	if _, err := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}).
		Vary("", []float64{1}, func(*lowsensing.Scenario, float64) {}).Run(); err == nil {
		t.Fatal("unnamed axis accepted")
	}
	if _, err := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}).
		Vary("x", nil, func(*lowsensing.Scenario, float64) {}).Run(); err == nil {
		t.Fatal("empty axis accepted")
	}
}

func TestSweepSpecJSON(t *testing.T) {
	spec := []byte(`{
		"id": "spec-sweep",
		"seed": 99,
		"reps": 2,
		"base": {"arrivals": {"kind": "batch", "n": 16}},
		"axes": [
			{"name": "rate", "variants": [
				{"label": "batch", "patch": {}},
				{"label": "bern", "patch": {"arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 16}}}
			]},
			{"name": "protocol", "variants": [
				{"label": "lsb"},
				{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
			]}
		]
	}`)
	ss, err := lowsensing.ParseSweepSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	points := sw.Points()
	if len(points) != 4 {
		t.Fatalf("spec grid has %d points", len(points))
	}
	if points[3].String() != "rate=bern protocol=beb" {
		t.Fatalf("point 3 = %q", points[3])
	}
	if points[3].Scenario.Arrivals.Kind != lowsensing.ArrivalsBernoulli ||
		points[3].Scenario.Protocol.Kind != lowsensing.ProtocolBEB {
		t.Fatalf("patches not applied: %+v", points[3].Scenario)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range results {
		if pr.Arrived != 32 { // 16 packets x 2 reps
			t.Fatalf("point %d arrived %d", i, pr.Arrived)
		}
	}

	// The JSON-driven sweep equals the programmatic one.
	prog := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(16)}).
		ID("spec-sweep").Seed(99).Reps(2).
		VaryScenario("rate", []string{"batch", "bern"}, func(sc *lowsensing.Scenario, i int) {
			if i == 1 {
				sc.Arrivals = lowsensing.BernoulliArrivals(0.1, 16)
			}
		}).
		VaryProtocol(lowsensing.ProtocolSpec{}, lowsensing.BEB())
	progResults, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Energy != progResults[i].Energy {
			t.Fatalf("spec point %d differs from programmatic sweep", i)
		}
	}
}

func TestSweepSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown top field":   `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "nope": 1}`,
		"unknown patch field": `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"patch": {"arrivalz": {}}}]}]}`,
		"invalid base":        `{"base": {"arrivals": {"kind": "batch"}}}`,
		"negative base cap":   `{"base": {"arrivals": {"kind": "batch", "n": 8}, "max_slots": -5}}`,
		"invalid point":       `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"patch": {"arrivals": {"n": -1}}}]}]}`,
		"empty axis":          `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": []}]}`,
	}
	for name, spec := range cases {
		ss, err := lowsensing.ParseSweepSpec([]byte(spec))
		if err != nil {
			continue // rejected at parse time (unknown fields)
		}
		if _, err := ss.Sweep(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestSweepObserveCollector: a Collector attached through Sweep.Observe
// samples each job's run exactly as it samples the same run made
// directly.
func TestSweepObserveCollector(t *testing.T) {
	ns := []int64{16, 48}
	const reps = 2
	var mu sync.Mutex
	got := map[[2]int]*lowsensing.Collector{}
	sw := lowsensing.NewSweep(lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(16)}).
		ID("observe-collector").
		Seed(29).
		Reps(reps).
		Workers(2).
		VaryInt("n", ns, func(sc *lowsensing.Scenario, n int64) {
			sc.Arrivals = lowsensing.BatchArrivals(n)
		}).
		Observe(func(p lowsensing.Point, rep int) lowsensing.Recorder {
			col := &lowsensing.Collector{Every: 4}
			mu.Lock()
			got[[2]int{p.Index, rep}] = col
			mu.Unlock()
			return col
		})
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ns)*reps {
		t.Fatalf("observed %d jobs, want %d", len(got), len(ns)*reps)
	}
	for pi, n := range ns {
		for rep := 0; rep < reps; rep++ {
			direct := &lowsensing.Collector{Every: 4}
			if _, err := (lowsensing.Scenario{
				Seed:     runner.DeriveSeed(29, "observe-collector", pi, rep),
				Arrivals: lowsensing.BatchArrivals(n),
			}).Simulation(lowsensing.WithRecorder(direct)).Run(); err != nil {
				t.Fatal(err)
			}
			swept := got[[2]int{pi, rep}].Samples()
			if len(swept) == 0 || !reflect.DeepEqual(swept, direct.Samples()) {
				t.Fatalf("point %d rep %d: sweep collector took %d samples, direct run %d, or they differ",
					pi, rep, len(swept), len(direct.Samples()))
			}
		}
	}
}
