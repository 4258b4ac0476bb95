package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/prng"
)

// small shrinks every workload to well under a second.
var small = sizes{batchN: 256, streamPackets: 5000, jobPackets: 200, sweepReps: 2}

// testSeed is not the default seed, whose outputs reference.json records
// at full size.
const testSeed = 7

func TestSpecsParseStrictly(t *testing.T) {
	for _, w := range workloads(small) {
		for _, kind := range []func(string) string{plainKind, tracedKind} {
			spec, err := w.spec(testSeed, kind)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if _, err := w.setup(spec); err != nil {
				t.Fatalf("%s: generated spec does not set up: %v\n%s", w.name, err, spec)
			}
			for _, typo := range []string{`{"bogus":1,`, `{"seed":1,"arivals":{},`} {
				bad := []byte(typo + string(spec[1:]))
				if _, err := w.setup(bad); err == nil {
					t.Errorf("%s: spec with unknown field accepted: %s", w.name, bad)
				}
			}
		}
	}
}

// Stand-in components implementing each combination of optional
// interfaces.
type (
	plainStation    struct{}
	reusableStation struct{ plainStation }
	windowedStation struct{ plainStation }
	bothStation     struct{ plainStation }
	plainJammer     struct{}
	rangeJammer     struct{ plainJammer }
	reactiveJammer  struct{ plainJammer }
	bothJammer      struct{ plainJammer }
)

func (plainStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) { return from, true }
func (plainStation) Observe(channel.Observation)                           {}
func (reusableStation) Reset(int64, *prng.Source)                          {}
func (windowedStation) Window() float64                                    { return 1 }
func (bothStation) Reset(int64, *prng.Source)                              {}
func (bothStation) Window() float64                                        { return 1 }
func (plainJammer) Jammed(int64) bool                                      { return false }
func (plainJammer) CountRange(int64, int64) int64                          { return 0 }
func (rangeJammer) NextJammedInRange(int64, int64) (int64, bool)           { return 0, false }
func (reactiveJammer) JammedReactive(int64, []int64) bool                  { return false }
func (bothJammer) NextJammedInRange(int64, int64) (int64, bool)            { return 0, false }
func (bothJammer) JammedReactive(int64, []int64) bool                      { return false }

// optionals lists the optional engine interfaces v implements.
func optionals(v any) []string {
	var out []string
	if _, ok := v.(channel.ReusableStation); ok {
		out = append(out, "ReusableStation")
	}
	if _, ok := v.(channel.Windowed); ok {
		out = append(out, "Windowed")
	}
	if _, ok := v.(channel.RangeJammer); ok {
		out = append(out, "RangeJammer")
	}
	if _, ok := v.(channel.ReactiveJammer); ok {
		out = append(out, "ReactiveJammer")
	}
	return out
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	sp := &span{}
	stations := []channel.Station{
		plainStation{}, reusableStation{}, windowedStation{}, bothStation{},
	}
	jammers := []channel.Jammer{
		plainJammer{}, rangeJammer{}, reactiveJammer{}, bothJammer{},
	}
	// The built-ins the workloads and their neighbours use.
	for _, kind := range []string{lowsensing.ProtocolLSB, lowsensing.ProtocolBEB, lowsensing.ProtocolSawtooth, lowsensing.ProtocolMWU} {
		f, err := lowsensing.ProtocolSpec{Kind: kind}.Factory()
		if err != nil {
			t.Fatal(err)
		}
		stations = append(stations, f(0, prng.New(1)))
	}
	for _, js := range []lowsensing.JammerSpec{
		lowsensing.RandomJamming(0.1, 0), lowsensing.BurstJamming(1, 5), lowsensing.ReactiveJamming(0, 3),
	} {
		j, err := js.Jammer(1)
		if err != nil {
			t.Fatal(err)
		}
		jammers = append(jammers, j)
	}
	for _, st := range stations {
		if got, want := optionals(wrapStation(st, sp)), optionals(st); !slices.Equal(got, want) {
			t.Errorf("wrapped %T implements %v, want %v", st, got, want)
		}
	}
	for _, j := range jammers {
		if got, want := optionals(wrapJammer(j, sp)), optionals(j); !slices.Equal(got, want) {
			t.Errorf("wrapped %T implements %v, want %v", j, got, want)
		}
	}
}

func TestShrunkenWorkloadsTracedIdentical(t *testing.T) {
	for _, w := range workloads(small) {
		runOnce := func(kind func(string) string, probe *statsProbe) (outcome, [numLayers]span) {
			spec, err := w.spec(testSeed, kind)
			if err != nil {
				t.Fatal(err)
			}
			j, err := w.setup(spec)
			if err != nil {
				t.Fatal(err)
			}
			spans.drain()
			out, err := j(probe)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return out, spans.drain()
		}
		plain, untouched := runOnce(plainKind, nil)
		traced, layers := runOnce(tracedKind, &statsProbe{})
		if plain.summary != traced.summary {
			t.Errorf("%s: traced statistics %+v, want %+v", w.name, traced.summary, plain.summary)
		}
		if w.name != "sweep-cluster" && plain.engine != traced.engine {
			t.Errorf("%s: traced engine stats %+v, want %+v", w.name, traced.engine, plain.engine)
		}
		if untouched != ([numLayers]span{}) {
			t.Errorf("%s: plain run opened spans: %+v", w.name, untouched)
		}
		if layers[layerProtocol].calls == 0 || layers[layerArrivals].calls == 0 {
			t.Errorf("%s: traced run recorded no protocol or arrival calls: %+v", w.name, layers)
		}
	}
}

// TestOutputContract runs the command on shrunken workloads and checks
// that the last line reports exactly the metrics BENCHMARK.json names.
func TestOutputContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bench struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	names := func(xs []named) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
			units[x.Name] = x.Unit
		}
		slices.Sort(out)
		return out
	}
	t.Chdir(t.TempDir()) // the traced run writes its spans under .bench_build
	var ws []string
	for _, w := range workloads(small) {
		ws = append(ws, w.name)
	}
	slices.Sort(ws)
	if got := names(bench.Workloads); !slices.Equal(got, ws) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", got, ws)
	}
	for _, w := range ws {
		for trace, want := range [][]string{names(bench.EndToEnd), names(bench.PerLayer)} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr, small); code != 0 {
				t.Fatalf("%v exited %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%v: %s in %s, BENCHMARK.json says %s", args, name, m.Unit, units[name])
				}
			}
			slices.Sort(got)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || !slices.Equal(got, want) {
				t.Errorf("%v: correct=%v attempted=%d failed=%d metrics %v, want %v",
					args, res.Correct, res.Attempted, res.Failed, got, want)
			}
		}
	}
}

func TestReferenceMismatchFails(t *testing.T) {
	w, _ := findWorkload("stream-jammed", small)
	m, err := measure(w, defaultSeed, time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	// The shrunken workload's statistics cannot match the full-size
	// reference.
	if len(m.failures) != 1 || len(m.plain) != 0 {
		t.Fatalf("failures %q, %d plain runs; want one reference failure", m.failures, len(m.plain))
	}
}

func TestReceivedShare(t *testing.T) {
	at := func(cpu, steal time.Duration) cpuClock { return cpuClock{cpu: cpu, steal: steal} }
	for _, c := range []struct {
		a, b cpuClock
		want float64
	}{
		{at(0, 0), at(3*time.Second, 0), 1},                                      // no steal: the clock's times
		{at(time.Second, 5*time.Second), at(4*time.Second, 6*time.Second), 0.75}, // 3 s run, 1 s stolen
		{at(0, 0), at(0, time.Second), 1},                                        // no CPU time to weigh
	} {
		if got := received(c.a, c.b); got != c.want {
			t.Errorf("received(%+v, %+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if c := readCPUClock(); c.cpu <= 0 {
		t.Errorf("readCPUClock() = %+v, want positive CPU time", c)
	}
}
