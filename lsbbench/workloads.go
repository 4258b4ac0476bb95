package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"lowsensing"
)

// sizes fixes how much work one run of each workload is.
type sizes struct {
	batchN        int64 // batch-lsb: packets in the batch
	streamPackets int64 // stream-jammed: packets
	jobPackets    int64 // sweep-cluster: packets per job
	sweepReps     int   // sweep-cluster: replications per grid point
}

// fullSizes are the benchmark's sizes; the self-tests run shrunken ones.
var fullSizes = sizes{batchN: 16384, streamPackets: 1_000_000, jobPackets: 4000, sweepReps: 75}

// A workload is one generated input document and how to set it up and run
// it through the public API.
type workload struct {
	name string
	why  string
	// spec renders the input for one seed, naming every built-in kind
	// through kind (plainKind, or tracedKind for the traced run).
	spec func(seed uint64, kind func(string) string) ([]byte, error)
	// setup parses, validates and builds the input into a runnable job:
	// the work setup_s times.
	setup func(spec []byte) (job, error)
}

// job runs a set-up workload once. A non-nil probe receives every packet's
// final statistics; the sweep has no sink hook and ignores it.
type job func(probe *statsProbe) (outcome, error)

// outcome is what one run produced: work counts for the rates, per-job
// wall times, and a digest of the simulated statistics, which are
// deterministic per seed and so are checked for identity, never scored.
type outcome struct {
	jobWalls []time.Duration // per-job host wall; nil for a single-run workload
	engine   lowsensing.EngineStats
	summary  referenceEntry
}

// statsProbe times sim.EnergyStats.AddPacket on the packets a PacketSink
// receives: a replay of the engine's own per-packet stats fold.
type statsProbe struct {
	energy lowsensing.EnergyStats
	sp     span
}

func (p *statsProbe) sink(ps lowsensing.PacketStats) {
	t0 := p.sp.start()
	p.energy.AddPacket(ps)
	p.sp.stop(t0)
}

func workloads(sz sizes) []workload {
	return []workload{
		{
			name: "batch-lsb",
			why:  "one batch under LSB: protocol math, sampling and the wheel drain do the work; arrivals, stats and cluster are idle",
			spec: func(seed uint64, kind func(string) string) ([]byte, error) {
				return json.Marshal(lowsensing.Scenario{
					Seed:     seed,
					Arrivals: lowsensing.ArrivalsSpec{Kind: kind(lowsensing.ArrivalsBatch), N: sz.batchN},
					Protocol: lowsensing.ProtocolSpec{Kind: kind(lowsensing.ProtocolLSB)},
				})
			},
			setup: scenarioSetup(sz.batchN),
		},
		{
			name: "stream-jammed",
			why:  "steady Bernoulli stream under random jamming: the packet lifecycle, arrivals and jammer calls and the batch fast path dominate",
			spec: func(seed uint64, kind func(string) string) ([]byte, error) {
				return json.Marshal(lowsensing.Scenario{
					Seed:     seed,
					Arrivals: lowsensing.ArrivalsSpec{Kind: kind(lowsensing.ArrivalsBernoulli), Rate: 0.1, N: sz.streamPackets},
					Protocol: lowsensing.ProtocolSpec{Kind: kind(lowsensing.ProtocolLSB)},
					Jammer:   lowsensing.JammerSpec{Kind: kind(lowsensing.JammerRandom), Rate: 0.1},
				})
			},
			setup: scenarioSetup(sz.streamPackets),
		},
		{
			name: "sweep-cluster",
			why:  "many short 8-channel cluster jobs: per-job setup, routing, epoch stepping, faults, merge and runner overhead show",
			spec: func(seed uint64, kind func(string) string) ([]byte, error) {
				return sweepSpec(seed, kind, sz)
			},
			setup: sweepSetup(sz),
		},
	}
}

func findWorkload(name string, sz sizes) (workload, bool) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenarioSetup parses a Scenario document (ParseScenario decodes strictly
// and validates) into a run that must deliver all n packets.
func scenarioSetup(n int64) func([]byte) (job, error) {
	return func(spec []byte) (job, error) {
		sc, err := lowsensing.ParseScenario(spec)
		if err != nil {
			return nil, err
		}
		return func(probe *statsProbe) (outcome, error) {
			var opts []lowsensing.Option
			if probe != nil {
				opts = append(opts, lowsensing.WithPacketSink(probe.sink))
			}
			r, err := sc.Simulation(opts...).Run()
			if err != nil {
				return outcome{}, err
			}
			if err := conserved(r.Arrived, r.Completed, r.Abandoned, r.Energy.Undelivered); err != nil {
				return outcome{}, err
			}
			if r.Arrived != n || r.Completed != n || r.Truncated {
				return outcome{}, fmt.Errorf("delivered %d of %d arrived packets (want %d of %d, truncated=%v)",
					r.Completed, r.Arrived, n, n, r.Truncated)
			}
			if probe != nil && fmt.Sprintf("%+v", probe.energy) != fmt.Sprintf("%+v", r.Energy) {
				return outcome{}, fmt.Errorf("packet sink's replayed stats fold differs from Result.Energy")
			}
			return outcome{
				engine: r.EngineStats,
				summary: summarize(struct {
					Result     lowsensing.Result
					Throughput float64
				}{r, r.Throughput()}, r.Arrived, r.Completed, r.EngineStats.EventsScheduled, r.Energy.Accesses.Sum),
			}, nil
		}, nil
	}
}

// Sweep grid: 3 rates x 3 protocols x 2 fault settings on 8-channel
// clusters routed by least backlog.
const sweepChannels = 8

var (
	sweepRates     = []float64{0.4, 0.8, 1.6}
	sweepProtocols = []string{lowsensing.ProtocolLSB, lowsensing.ProtocolBEB, lowsensing.ProtocolSawtooth}
	sweepPoints    = len(sweepRates) * len(sweepProtocols) * 2
)

func sweepSpec(seed uint64, kind func(string) string, sz sizes) ([]byte, error) {
	patch := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps of plain values always marshal
		}
		return b
	}
	var rates, protocols []lowsensing.Variant
	for _, r := range sweepRates {
		rates = append(rates, lowsensing.Variant{
			Label: fmt.Sprint(r),
			Patch: patch(map[string]any{"arrivals": map[string]any{"rate": r}}),
		})
	}
	for _, p := range sweepProtocols {
		protocols = append(protocols, lowsensing.Variant{
			Label: p,
			Patch: patch(map[string]any{"protocol": map[string]any{"kind": kind(p)}}),
		})
	}
	flaky := lowsensing.FlakyFaults(0.1, 0.05, 0.001, 8)
	flaky.Kind = kind(flaky.Kind)
	return json.Marshal(lowsensing.SweepSpec{
		ID:       "sweep-cluster",
		Seed:     seed,
		Reps:     sz.sweepReps,
		Channels: sweepChannels,
		Router:   lowsensing.RouterSpec{Kind: kind(lowsensing.RouterLeastBacklog)},
		Base: lowsensing.Scenario{
			Seed:     seed,
			Arrivals: lowsensing.ArrivalsSpec{Kind: kind(lowsensing.ArrivalsPoisson), Rate: sweepRates[0], N: sz.jobPackets},
		},
		Axes: []lowsensing.AxisSpec{
			{Name: "rate", Variants: rates},
			{Name: "protocol", Variants: protocols},
			{Name: "faults", Variants: []lowsensing.Variant{
				{Label: "none"},
				{Label: "flaky", Patch: patch(map[string]any{"faults": flaky})},
			}},
		},
	})
}

// sweepStats is a PointResult without the point's scenario, whose kind
// names differ between the plain and the traced spec.
type sweepStats struct {
	Labels                                                  []string
	Reps, Truncated                                         int
	Arrived, Completed, Abandoned, ActiveSlots, JammedSlots int64
	Faults                                                  lowsensing.FaultStats
	Energy                                                  lowsensing.EnergyStats
	Throughput, Latency                                     lowsensing.Welford
}

// sweepSetup parses a SweepSpec document and builds the sweep
// (SweepSpec.Sweep validates every grid point) into a run on one runner
// worker per CPU.
func sweepSetup(sz sizes) func([]byte) (job, error) {
	return func(spec []byte) (job, error) {
		ss, err := lowsensing.ParseSweepSpec(spec)
		if err != nil {
			return nil, err
		}
		sw, err := ss.Sweep()
		if err != nil {
			return nil, err
		}
		jobs := sweepPoints * sz.sweepReps
		return func(*statsProbe) (outcome, error) {
			walls := make([]time.Duration, 0, jobs)
			events := make([]int64, 0, jobs)
			points, err := sw.Workers(runtime.NumCPU()).Progress(func(p lowsensing.SweepProgress) {
				walls = append(walls, p.Wall)
				events = append(events, p.Events)
			}).Run()
			if err != nil {
				return outcome{}, err
			}
			if len(points) != sweepPoints || len(walls) != jobs {
				return outcome{}, fmt.Errorf("sweep ran %d points and %d jobs, want %d and %d",
					len(points), len(walls), sweepPoints, jobs)
			}
			st := make([]sweepStats, len(points))
			var arrived, completed, accesses, total int64
			for i, p := range points {
				if err := conserved(p.Arrived, p.Completed, p.Abandoned, p.Energy.Undelivered); err != nil {
					return outcome{}, fmt.Errorf("point %s: %w", p.Point, err)
				}
				if p.Reps != sz.sweepReps || p.Truncated != 0 || p.Arrived != int64(sz.sweepReps)*sz.jobPackets {
					return outcome{}, fmt.Errorf("point %s: %d reps, %d truncated, %d arrived; want %d, 0, %d",
						p.Point, p.Reps, p.Truncated, p.Arrived, sz.sweepReps, int64(sz.sweepReps)*sz.jobPackets)
				}
				st[i] = sweepStats{p.Point.Labels, p.Reps, p.Truncated, p.Arrived, p.Completed, p.Abandoned,
					p.ActiveSlots, p.JammedSlots, p.Faults, p.Energy, p.Throughput, p.Latency}
				arrived += p.Arrived
				completed += p.Completed
				accesses += p.Energy.Accesses.Sum
			}
			for _, e := range events {
				total += e
			}
			return outcome{
				jobWalls: walls,
				engine:   lowsensing.EngineStats{EventsScheduled: total},
				summary: summarize(struct {
					Points    []sweepStats
					JobEvents []int64
				}{st, events}, arrived, completed, total, accesses),
			}, nil
		}, nil
	}
}

// conserved checks Arrived == Completed + Abandoned + Undelivered.
func conserved(arrived, completed, abandoned, undelivered int64) error {
	if arrived != completed+abandoned+undelivered {
		return fmt.Errorf("conservation broken: arrived %d != completed %d + abandoned %d + undelivered %d",
			arrived, completed, abandoned, undelivered)
	}
	return nil
}

// summarize digests the simulated statistics v: fmt prints every field,
// unexported ones too, and floats in their shortest exact form (none of
// the types involved has a String method), so equal digests mean
// bit-identical statistics.
func summarize(v any, arrived, completed, events, accesses int64) referenceEntry {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return referenceEntry{
		Digest:    hex.EncodeToString(sum[:]),
		Arrived:   arrived,
		Completed: completed,
		Events:    events,
		Accesses:  accesses,
	}
}
