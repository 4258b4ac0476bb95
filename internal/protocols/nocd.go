package protocols

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/prng"
)

// CDMode selects how a no-collision-detection channel conflates the two
// non-success outcomes a listener cannot tell apart.
type CDMode int

// Conflation modes for the no-collision-detection model. In that model
// (see the paper's related work: De Marco–Stachowiak, Bender et al. STOC
// 2020, Chen–Jiang–Zheng) a listener learns only whether the slot carried
// a success; empty and noisy are indistinguishable. A wrapped station must
// commit to interpreting every non-success as one or the other.
const (
	// CDAsEmpty delivers every non-success as OutcomeEmpty.
	CDAsEmpty CDMode = iota + 1
	// CDAsNoisy delivers every non-success as OutcomeNoisy.
	CDAsNoisy
)

// noCD degrades the ternary feedback reaching an inner station to binary
// success/non-success, realizing the weaker channel model so experiments
// can measure how much LOW-SENSING BACKOFF's guarantees depend on ternary
// feedback (experiment E12). A station that transmitted still learns its
// own outcome exactly (own success is always detectable).
type noCD struct {
	inner channel.Station
	mode  CDMode
}

// NewNoCDFactory wraps a station factory in the no-collision-detection
// channel degradation.
func NewNoCDFactory(inner channel.StationFactory, mode CDMode) (channel.StationFactory, error) {
	if inner == nil {
		return nil, fmt.Errorf("protocols: NoCD requires an inner factory")
	}
	if mode != CDAsEmpty && mode != CDAsNoisy {
		return nil, fmt.Errorf("protocols: unknown CD mode %d", mode)
	}
	return func(id int64, rng *prng.Source) channel.Station {
		return &noCD{inner: inner(id, rng), mode: mode}
	}, nil
}

// ScheduleNext implements channel.Station.
//
//lsbvet:hotpath
func (n *noCD) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return n.inner.ScheduleNext(from, rng)
}

// Observe implements channel.Station, degrading the outcome before delivery.
//
//lsbvet:hotpath
func (n *noCD) Observe(obs channel.Observation) {
	// A sender always knows whether its own transmission succeeded; a
	// failed send is unambiguous noise even without collision detection
	// (the packet is still here). Only pure listens are degraded.
	if !obs.Sent && obs.Outcome != channel.OutcomeSuccess {
		if n.mode == CDAsEmpty {
			obs.Outcome = channel.OutcomeEmpty
		} else {
			obs.Outcome = channel.OutcomeNoisy
		}
	}
	n.inner.Observe(obs)
}

// Window exposes the inner station's window if it has one.
func (n *noCD) Window() float64 {
	if w, ok := n.inner.(channel.Windowed); ok {
		return w.Window()
	}
	return 0
}

var (
	_ channel.Station  = (*noCD)(nil)
	_ channel.Windowed = (*noCD)(nil)
)
