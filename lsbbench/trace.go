package main

import (
	"sync"
	"time"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/prng"
)

// The traced run times the calls into each layer's public interface from
// outside the library. It does so through traced kinds: every kind a
// workload names has a "traced-" twin, registered below, whose factory
// delegates to the built-in factory and wraps what it returns. A traced
// spec differs from the plain one only in its kind names, so both runs
// draw the same randomness and must produce bit-identical statistics.
//
// Wrappers forward exactly the optional interfaces of what they wrap
// (ReusableStation, Windowed, RangeJammer, ReactiveJammer), so the engine
// takes the same path and keeps recycling stations. What the traced run
// does lose is the engine's devirtualized dispatch of built-in stations;
// that cost, with the clock reads, is part of trace.overhead_frac.

const tracedPrefix = "traced-"

// Traced kinds, one per built-in kind the workloads name.
const (
	tracedLSB          = tracedPrefix + lowsensing.ProtocolLSB
	tracedBEB          = tracedPrefix + lowsensing.ProtocolBEB
	tracedSawtooth     = tracedPrefix + lowsensing.ProtocolSawtooth
	tracedBatch        = tracedPrefix + lowsensing.ArrivalsBatch
	tracedBernoulli    = tracedPrefix + lowsensing.ArrivalsBernoulli
	tracedPoisson      = tracedPrefix + lowsensing.ArrivalsPoisson
	tracedRandomJammer = tracedPrefix + lowsensing.JammerRandom
	tracedLeastBacklog = tracedPrefix + lowsensing.RouterLeastBacklog
	tracedFlaky        = tracedPrefix + lowsensing.FaultFlaky
)

func init() {
	lowsensing.RegisterProtocol(tracedLSB, "lsb with per-call timing (benchmark trace)", tracedProtocol(lowsensing.ProtocolLSB))
	lowsensing.RegisterProtocol(tracedBEB, "beb with per-call timing (benchmark trace)", tracedProtocol(lowsensing.ProtocolBEB))
	lowsensing.RegisterProtocol(tracedSawtooth, "sawtooth with per-call timing (benchmark trace)", tracedProtocol(lowsensing.ProtocolSawtooth))
	lowsensing.RegisterArrivals(tracedBatch, "batch with per-call timing (benchmark trace)", tracedArrivals(lowsensing.ArrivalsBatch))
	lowsensing.RegisterArrivals(tracedBernoulli, "bernoulli with per-call timing (benchmark trace)", tracedArrivals(lowsensing.ArrivalsBernoulli))
	lowsensing.RegisterArrivals(tracedPoisson, "poisson with per-call timing (benchmark trace)", tracedArrivals(lowsensing.ArrivalsPoisson))
	lowsensing.RegisterJammer(tracedRandomJammer, "random jammer with per-call timing (benchmark trace)", tracedJammer(lowsensing.JammerRandom))
	lowsensing.RegisterRouter(tracedLeastBacklog, "leastbacklog with per-call timing (benchmark trace)", tracedRouter(lowsensing.RouterLeastBacklog))
	lowsensing.RegisterFault(tracedFlaky, "flaky faults with per-call timing (benchmark trace)", tracedFaults(lowsensing.FaultFlaky))
}

// plainKind and tracedKind map a built-in kind to the kind a spec names.
func plainKind(kind string) string  { return kind }
func tracedKind(kind string) string { return tracedPrefix + kind }

// now reads the host clock; every benchmark timing goes through it.
func now() time.Time { return time.Now() } //lsbvet:wallclock the benchmark measures host time; results never depend on it

func since(t0 time.Time) time.Duration { return now().Sub(t0) }

// layer names a traced library boundary.
type layer int

const (
	layerProtocol layer = iota // internal/core, internal/protocols (with prng, internal/dist)
	layerArrivals              // internal/arrivals
	layerJamming               // internal/jamming
	layerFaults                // internal/faults
	layerRouter                // cluster routers
	numLayers
)

var layerNames = [numLayers]string{"protocol", "arrivals", "jamming", "faults", "cluster"}

// sampleEvery is the tracing stride: a span counts every call and times
// one call in sampleEvery. A clock read costs about as much as a protocol
// call, so timing every call would mostly measure the clock. The stride is
// odd because the engine alternates Observe and ScheduleNext calls.
const sampleEvery = 11

// span aggregates the calls into one component instance: how many, and the
// host time of the sampled ones. A component belongs to one run, which one
// goroutine drives (cluster jobs in a sweep run their channels with
// Workers 1), so the fields need no synchronization; they are read only
// after that run has returned.
type span struct {
	calls   int64
	sampled int64
	ns      int64 // host time of the sampled calls, clock reads included
	clockNs int64 // host time of one clock read next to each sampled call
	// slots counts the distinct arrival slots an arrival source returned
	// (the barrier rounds of an epoch-synchronized cluster run).
	slots int64
	last  int64
}

// start counts a call and, if the call is sampled, returns its start time;
// otherwise it returns the zero Time, which stop ignores. A sampled call
// reads the clock twice before it starts: the gap between the two reads is
// what one read adds to the call's measured time, taken in the same state
// of caches and pipeline as the call itself.
func (s *span) start() time.Time {
	s.calls++
	if s.calls%sampleEvery != 1 {
		return time.Time{}
	}
	t0 := now()
	t1 := now()
	s.clockNs += int64(t1.Sub(t0))
	return t1
}

func (s *span) stop(t1 time.Time) {
	if !t1.IsZero() {
		s.ns += int64(since(t1))
		s.sampled++
	}
}

func (s *span) add(o span) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
	s.clockNs += o.clockNs
	s.slots += o.slots
}

// scale scales the span's times by f (the run's received CPU share).
func (s *span) scale(f float64) {
	s.ns = int64(float64(s.ns) * f)
	s.clockNs = int64(float64(s.clockNs) * f)
}

// nsPerCall estimates the mean host time of one call from the sampled
// calls, less the clock reads.
func (s span) nsPerCall() float64 {
	if s.sampled == 0 {
		return 0
	}
	return max(float64(s.ns-s.clockNs)/float64(s.sampled), 0)
}

// collector holds every span the traced factories opened, in memory, until
// the benchmark drains them after a run.
type collector struct {
	mu    sync.Mutex
	spans [numLayers][]*span
}

var spans collector

func (c *collector) open(l layer) *span {
	s := &span{last: -1}
	c.mu.Lock()
	c.spans[l] = append(c.spans[l], s)
	c.mu.Unlock()
	return s
}

// drain sums and forgets every span opened since the last drain.
func (c *collector) drain() [numLayers]span {
	var tot [numLayers]span
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := range c.spans {
		for _, s := range c.spans[l] {
			tot[l].add(*s)
		}
		c.spans[l] = nil
	}
	return tot
}

func tracedProtocol(inner string) lowsensing.ProtocolFactory {
	return func(spec lowsensing.ProtocolSpec) (lowsensing.StationFactory, error) {
		spec.Kind = inner
		factory, err := spec.Factory()
		if err != nil {
			return nil, err
		}
		sp := spans.open(layerProtocol)
		return func(id int64, rng *prng.Source) channel.Station {
			t0 := sp.start()
			st := factory(id, rng)
			sp.stop(t0)
			return wrapStation(st, sp)
		}, nil
	}
}

func tracedArrivals(inner string) lowsensing.ArrivalsFactory {
	return func(spec lowsensing.ArrivalsSpec, seed uint64) (lowsensing.ArrivalSource, error) {
		spec.Kind = inner
		src, err := spec.Source(seed)
		if err != nil {
			return nil, err
		}
		return &tracedSource{inner: src, sp: spans.open(layerArrivals)}, nil
	}
}

func tracedJammer(inner string) lowsensing.JammerFactory {
	return func(spec lowsensing.JammerSpec, seed uint64) (lowsensing.Jammer, error) {
		spec.Kind = inner
		j, err := spec.Jammer(seed)
		if err != nil || j == nil {
			return j, err
		}
		return wrapJammer(j, spans.open(layerJamming)), nil
	}
}

func tracedRouter(inner string) lowsensing.RouterFactory {
	return func(spec lowsensing.RouterSpec, seed uint64) (lowsensing.Router, error) {
		spec.Kind = inner
		r, err := spec.Router(seed)
		if err != nil {
			return nil, err
		}
		return &tracedRouterImpl{inner: r, sp: spans.open(layerRouter)}, nil
	}
}

func tracedFaults(inner string) lowsensing.FaultFactory {
	return func(spec lowsensing.FaultSpec) (lowsensing.FaultModel, error) {
		spec.Kind = inner
		m, err := spec.Model()
		if err != nil || m == nil {
			return m, err
		}
		return &tracedFaultModel{inner: m, sp: spans.open(layerFaults)}, nil
	}
}

// Stations.

type stationCore struct {
	st channel.Station
	sp *span
}

func (s *stationCore) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	t0 := s.sp.start()
	slot, send := s.st.ScheduleNext(from, rng)
	s.sp.stop(t0)
	return slot, send
}

func (s *stationCore) Observe(o channel.Observation) {
	t0 := s.sp.start()
	s.st.Observe(o)
	s.sp.stop(t0)
}

type resetter struct {
	rs channel.ReusableStation
	sp *span
}

func (r resetter) Reset(id int64, rng *prng.Source) {
	t0 := r.sp.start()
	r.rs.Reset(id, rng)
	r.sp.stop(t0)
}

type windower struct{ w channel.Windowed }

func (w windower) Window() float64 { return w.w.Window() }

type (
	tracedStation  struct{ stationCore }
	tracedReusable struct {
		stationCore
		resetter
	}
	tracedWindowed struct {
		stationCore
		windower
	}
	tracedReusableWindowed struct {
		stationCore
		resetter
		windower
	}
)

// wrapStation returns a timed station implementing exactly the optional
// interfaces st implements.
func wrapStation(st channel.Station, sp *span) channel.Station {
	core := stationCore{st: st, sp: sp}
	rs, reusable := st.(channel.ReusableStation)
	w, windowed := st.(channel.Windowed)
	switch {
	case reusable && windowed:
		return &tracedReusableWindowed{core, resetter{rs, sp}, windower{w}}
	case reusable:
		return &tracedReusable{core, resetter{rs, sp}}
	case windowed:
		return &tracedWindowed{core, windower{w}}
	default:
		return &tracedStation{core}
	}
}

// Jammers.

type jammerCore struct {
	j  channel.Jammer
	sp *span
}

func (j *jammerCore) Jammed(slot int64) bool {
	t0 := j.sp.start()
	jammed := j.j.Jammed(slot)
	j.sp.stop(t0)
	return jammed
}

func (j *jammerCore) CountRange(from, to int64) int64 {
	t0 := j.sp.start()
	n := j.j.CountRange(from, to)
	j.sp.stop(t0)
	return n
}

type ranger struct {
	rj channel.RangeJammer
	sp *span
}

func (r ranger) NextJammedInRange(from, to int64) (int64, bool) {
	t0 := r.sp.start()
	slot, ok := r.rj.NextJammedInRange(from, to)
	r.sp.stop(t0)
	return slot, ok
}

type reactor struct {
	rj channel.ReactiveJammer
	sp *span
}

func (r reactor) JammedReactive(slot int64, senders []int64) bool {
	t0 := r.sp.start()
	jammed := r.rj.JammedReactive(slot, senders)
	r.sp.stop(t0)
	return jammed
}

type (
	tracedJammerImpl  struct{ jammerCore }
	tracedRangeJammer struct {
		jammerCore
		ranger
	}
	tracedReactiveJammer struct {
		jammerCore
		reactor
	}
	tracedRangeReactiveJammer struct {
		jammerCore
		ranger
		reactor
	}
)

// wrapJammer returns a timed jammer implementing exactly the optional
// interfaces j implements.
func wrapJammer(j channel.Jammer, sp *span) channel.Jammer {
	core := jammerCore{j: j, sp: sp}
	rj, isRange := j.(channel.RangeJammer)
	xj, isReactive := j.(channel.ReactiveJammer)
	switch {
	case isRange && isReactive:
		return &tracedRangeReactiveJammer{core, ranger{rj, sp}, reactor{xj, sp}}
	case isRange:
		return &tracedRangeJammer{core, ranger{rj, sp}}
	case isReactive:
		return &tracedReactiveJammer{core, reactor{xj, sp}}
	default:
		return &tracedJammerImpl{core}
	}
}

// Arrival sources.

type tracedSource struct {
	inner channel.ArrivalSource
	sp    *span
}

func (s *tracedSource) Next() (int64, int64, bool) {
	t0 := s.sp.start()
	slot, count, ok := s.inner.Next()
	s.sp.stop(t0)
	if ok && slot != s.sp.last {
		s.sp.slots++
		s.sp.last = slot
	}
	return slot, count, ok
}

// Routers.

type tracedRouterImpl struct {
	inner lowsensing.Router
	sp    *span
}

func (r *tracedRouterImpl) Route(id, slot int64, v lowsensing.RouterView) int {
	t0 := r.sp.start()
	ch := r.inner.Route(id, slot, v)
	r.sp.stop(t0)
	return ch
}

func (r *tracedRouterImpl) NeedsBacklog() bool { return r.inner.NeedsBacklog() }

// Fault models.

type tracedFaultModel struct {
	inner channel.FaultModel
	sp    *span
}

func (m *tracedFaultModel) Corrupt(id, slot int64, o channel.Outcome, rng *prng.Source) channel.Outcome {
	t0 := m.sp.start()
	out := m.inner.Corrupt(id, slot, o, rng)
	m.sp.stop(t0)
	return out
}

func (m *tracedFaultModel) Crash(id, slot int64, rng *prng.Source) (int64, bool) {
	t0 := m.sp.start()
	down, crashed := m.inner.Crash(id, slot, rng)
	m.sp.stop(t0)
	return down, crashed
}
