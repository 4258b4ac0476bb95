// Package lowsensing is a library implementation of LOW-SENSING BACKOFF —
// the fully energy-efficient randomized backoff algorithm of Bender,
// Fineman, Gilbert, Kuszmaul, and Young (PODC 2024) — together with the
// slotted-channel simulator, adversaries (adaptive arrivals, jamming,
// reactive jamming), baseline protocols, and the benchmark harness that
// reproduces the paper's results.
//
// The quickest way in:
//
//	res, err := lowsensing.Scenario{
//	    Seed:     1,
//	    Arrivals: lowsensing.BatchArrivals(1024),
//	}.Run()
//	// res.Throughput() ≈ 0.3, res.MeanAccesses() = O(polylog N)
//
// A run is described by a Scenario — a serializable value covering
// arrivals, protocol, jammer, churn, faults, slot cap, and seed — and
// multi-run experiments by a Sweep, which executes every (point,
// replication) pair of a parameter grid on a worker pool with deterministic
// per-job seeding and streams per-point aggregates. Specs can live in files:
//
//	sc, _ := lowsensing.ParseScenario(jsonSpec)
//	res, _ := sc.Run()
//
// What cannot be written as data — custom component instances, observers,
// and sinks — attaches as an Option hook through Scenario.Simulation:
//
//	col := &lowsensing.Collector{Every: 64}
//	res, _ := sc.Simulation(lowsensing.WithRecorder(col)).Run()
//
// Default runs are constant-memory per live packet — the engine state and
// the Result both stay O(backlog) on arbitrarily long streams, with energy
// and latency statistics kept in streaming accumulators (Result.Energy).
// Per-packet records are opt-in via Scenario.RetainPackets or
// WithPacketSink.
//
// # Extension surface
//
// The three engine-facing contracts — Station (the protocol), ArrivalSource
// (the workload), and Jammer (the adversary) — are public interfaces
// defined in lowsensing/channel, and the kind names specs resolve are an
// open set: RegisterProtocol, RegisterArrivals, and RegisterJammer make a
// user-defined implementation resolvable from Scenario and SweepSpec JSON,
// sweeps, and the CLIs exactly like a built-in (the built-ins register
// through the same path). See the package example RegisterProtocol and the
// README's "Extending lowsensing" section.
package lowsensing

import (
	"errors"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/metrics"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

// Config holds the LOW-SENSING BACKOFF parameters (the constant c, the
// minimum window, and the ln-exponent k). See core.Config for the details
// and constraints.
type Config = core.Config

// Result summarizes a finished simulation; see sim.Result for all fields
// and derived metrics (Throughput, ImplicitThroughput, MeanAccesses, ...).
type Result = sim.Result

// PacketStats is the per-packet lifetime/energy record inside Result.
type PacketStats = sim.PacketStats

// EnergyStats holds the streaming per-packet accumulators every Result
// carries (Result.Energy): one Tally per metric, in constant memory.
type EnergyStats = sim.EnergyStats

// Tally is a streaming accumulator — count, exact sum, min/max, second
// moment, and a log-bucketed histogram answering quantile queries — used by
// EnergyStats and sweep aggregates.
type Tally = stats.Tally

// Welford accumulates mean, variance, min, and max in one pass without
// storing the sample; sweep aggregates use it for per-replication scalars.
type Welford = stats.Welford

// EnergySummary aggregates per-packet access statistics.
type EnergySummary = metrics.EnergySummary

// Collector samples backlog, throughput, potential and window-size time
// series during a run. It is a Recorder bound to the run's engine: attach
// one with WithRecorder.
type Collector = metrics.Collector

// Recorder consumes a run's structured event stream (slot and packet
// events); attach one with WithRecorder. The lowsensing/obs package
// provides composable implementations: fan-out, sampling, ring buffers,
// windowed time-series, and NDJSON/CSV sinks.
type Recorder = obs.Recorder

// SlotEvent is the structured record of one resolved slot a Recorder
// receives; see obs.SlotEvent.
type SlotEvent = obs.SlotEvent

// PacketEvent is the structured record of one packet's closed lifecycle a
// Recorder receives; see obs.PacketEvent.
type PacketEvent = obs.PacketEvent

// EngineStats is the engine's self-metrics block, always populated in
// Result.EngineStats; see sim.EngineStats for the field meanings.
type EngineStats = sim.EngineStats

// ArrivalSource produces the (slot, count) arrival schedule of a run; see
// channel.ArrivalSource for the contract. Supply a custom instance with
// WithArrivals, or register a kind with RegisterArrivals to drive it from
// specs.
type ArrivalSource = channel.ArrivalSource

// Jammer decides which slots the adversary jams; see channel.Jammer for
// the contract. Supply a custom instance with WithJammer, or register a
// kind with RegisterJammer to drive it from specs.
type Jammer = channel.Jammer

// ReactiveJammer is a Jammer that also sees the current slot's senders
// before the channel resolves (paper §1.3); see channel.ReactiveJammer.
type ReactiveJammer = channel.ReactiveJammer

// Station is the per-packet protocol state machine — the protocol
// contract; see channel.Station for the slot-level semantics. Supply a
// custom factory with WithStations, or register a kind with
// RegisterProtocol to drive it from specs.
type Station = channel.Station

// ReusableStation is a Station the engine may recycle between packets via
// Reset, making the steady-state packet lifecycle allocation-free; see
// channel.ReusableStation for the contract (Reset must be
// indistinguishable from fresh construction). All built-in protocols
// implement it.
type ReusableStation = channel.ReusableStation

// StationFactory builds the Station for each newly injected packet. Supply
// a custom one with WithStations.
type StationFactory = channel.StationFactory

// Observation is the ternary feedback a station receives at each slot it
// accessed; see channel.Observation.
type Observation = channel.Observation

// Outcome is the ternary channel feedback for one slot (OutcomeEmpty,
// OutcomeSuccess, or OutcomeNoisy); see channel.Outcome.
type Outcome = channel.Outcome

// The three channel outcomes, re-exported from package channel.
const (
	OutcomeEmpty   = channel.OutcomeEmpty
	OutcomeSuccess = channel.OutcomeSuccess
	OutcomeNoisy   = channel.OutcomeNoisy
)

// DefaultConfig returns the reference algorithm parameters used throughout
// the experiments (c = 0.5, w_min = 8, k = 3).
func DefaultConfig() Config { return core.Default() }

// SummarizeEnergy computes per-packet energy and latency statistics.
func SummarizeEnergy(r Result) EnergySummary { return metrics.SummarizeEnergy(r) }

// ErrReused is returned by Run when a Simulation wired to stateful
// instances (WithArrivals, WithJammer) is run a second time: the instance's
// arrival stream or jam budget was consumed by the first run, so re-running
// would silently simulate a different workload. Build a fresh Simulation
// with new instances, or describe the components as Scenario data — those
// are reconstructed on every Run and can be re-run freely.
var ErrReused = errors.New("lowsensing: Simulation already run; WithArrivals/WithJammer wrap single-use instances — build a new one, or describe them as Scenario data")

// Simulation is a configured run: a Scenario plus the hooks that cannot be
// written as data, built by Scenario.Simulation. Seeded components
// (arrival processes, random jammers) are constructed at Run time from the
// scenario's seed.
type Simulation struct {
	sc Scenario
	// Custom (non-serializable) components override the scenario fields.
	customArrivals ArrivalSource
	customFactory  StationFactory
	customJammer   Jammer
	recorders      []Recorder
	sink           func(PacketStats)
	ran            bool
}

// Option attaches a hook that cannot be written as Scenario data — a custom
// component instance, an observer, or a sink — to the Simulation built by
// Scenario.Simulation.
type Option func(*Simulation)

// Scenario returns the serializable description of this simulation. It is
// complete — marshal it, store it, Run it later — unless custom instances
// (WithArrivals, WithStations, WithJammer) were attached; those cannot be
// expressed as data and clear the matching spec field.
func (s *Simulation) Scenario() Scenario { return s.sc }

// Run executes the simulation.
func (s *Simulation) Run() (Result, error) {
	if s.ran && (s.customArrivals != nil || s.customJammer != nil) {
		return Result{}, ErrReused
	}
	// Multi-class scenarios build their own merged source, dispatching
	// factory, churn lifetimes, and fault model; they replace the top-level
	// arrivals/protocol/churn/faults, so custom instances cannot combine
	// with them.
	var mc *multiclassRun
	var lifetime func(id, arrival int64) int64
	var faultModel FaultModel
	src := s.customArrivals
	factory := s.customFactory
	sink := s.sink
	if len(s.sc.Classes) > 0 {
		if s.customArrivals != nil || s.customFactory != nil {
			return Result{}, errors.New("lowsensing: WithArrivals/WithStations cannot combine with Scenario.Classes (each class brings its own)")
		}
		var err error
		if mc, err = newMulticlassRun(s.sc); err != nil {
			return Result{}, err
		}
		src = mc.source
		factory = mc.factory()
		lifetime = mc.lifetime()
		faultModel = mc.faults()
		sink = mc.sink(s.sink)
	} else {
		if src == nil {
			var err error
			if src, err = s.sc.Arrivals.Source(s.sc.Seed); err != nil {
				return Result{}, err
			}
		}
		if factory == nil {
			var err error
			if factory, err = s.sc.Protocol.Factory(); err != nil {
				return Result{}, err
			}
		}
		ch, err := s.sc.Churn.Churn(s.sc.Seed)
		if err != nil {
			return Result{}, err
		}
		if ch != nil {
			if joins := ch.Joins(); joins != nil {
				src = arrivals.NewMerge(src, joins)
			}
			lifetime = ch.LeaveSlot
		}
		if faultModel, err = s.sc.Faults.Model(); err != nil {
			return Result{}, err
		}
	}
	jammer := s.customJammer
	if jammer == nil {
		var err error
		if jammer, err = s.sc.Jammer.Jammer(s.sc.Seed); err != nil {
			return Result{}, err
		}
	}
	// Only past this point can the engine consume custom instances; earlier
	// configuration errors leave the Simulation retryable, so a failed Run
	// keeps reporting its real error rather than ErrReused.
	s.ran = true
	e, err := sim.NewEngine(sim.Params{
		Seed:       s.sc.Seed,
		Arrivals:   src,
		NewStation: factory,
		Jammer:     jammer,
		MaxSlots:   s.sc.MaxSlots,
		Recorder:   obs.Multi(s.recorders...),
		PacketSink: sink,
		Lifetime:   lifetime,
		Faults:     faultModel,
		// Station recycling is safe exactly when the factory came from a
		// registered kind: kind factories are built from pure spec data,
		// so every packet gets an identically-configured station and
		// ReusableStation.Reset is indistinguishable from reconstruction.
		// A custom WithStations closure may vary its output per packet id,
		// so it keeps exact factory-per-packet semantics — and so does a
		// multi-class run, whose factory varies by class.
		ReuseStations:   s.customFactory == nil && mc == nil,
		RetainPackets:   s.sc.RetainPackets,
		DisableBatching: s.sc.DisableBatching,
	})
	if err != nil {
		return Result{}, err
	}
	res, err := e.Run()
	if err != nil {
		return Result{}, err
	}
	if mc != nil {
		mc.finalize(&res)
	}
	return res, nil
}

// WithArrivals supplies a custom arrival source instance, replacing
// Scenario.Arrivals. Arrival sources are consumed as they run, so a
// Simulation carrying one is single-use: a second Run returns ErrReused.
func WithArrivals(src ArrivalSource) Option {
	return func(s *Simulation) {
		s.sc.Arrivals = ArrivalsSpec{}
		s.customArrivals = src
	}
}

// WithStations supplies a custom station factory (any Station
// implementation), replacing Scenario.Protocol. Custom factories keep exact
// factory-per-packet semantics: the engine calls f for every injected
// packet and never recycles the stations it returns (a closure may legally
// vary its output per packet id). Protocols from registered kinds
// additionally get station recycling; see ReusableStation.
func WithStations(f StationFactory) Option {
	return func(s *Simulation) {
		s.sc.Protocol = ProtocolSpec{}
		s.customFactory = f
	}
}

// WithJammer supplies a custom jammer instance, replacing Scenario.Jammer.
// Jammers spend budget as they run, so a Simulation carrying one is
// single-use: a second Run returns ErrReused.
func WithJammer(j Jammer) Option {
	return func(s *Simulation) {
		s.sc.Jammer = JammerSpec{}
		s.customJammer = j
	}
}

// WithRecorder attaches a structured event recorder: it receives a
// SlotEvent after every resolved slot and a PacketEvent for every packet
// (delivered packets at departure, survivors at the end of the run with
// Departure = -1). Multiple recorders compose; see lowsensing/obs for
// sinks, sampling decorators, windowed time-series, and the ASCII
// timeline. A recorder that samples engine state, such as a Collector, is
// bound to the run's engine before the first slot. Runs without a
// recorder pay one predictable branch per slot.
func WithRecorder(r Recorder) Option {
	return func(s *Simulation) {
		if r != nil {
			s.recorders = append(s.recorders, r)
		}
	}
}

// WithPacketSink streams every packet's final PacketStats out of the
// engine: delivered packets as they depart (in departure order),
// undelivered packets (Departure = -1) at the end of the run in arrival
// order. Nothing is retained, so sinks observe per-packet data on streams
// of any length at O(backlog) engine memory.
func WithPacketSink(sink func(PacketStats)) Option {
	return func(s *Simulation) { s.sink = sink }
}
