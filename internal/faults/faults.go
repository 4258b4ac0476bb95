// Package faults provides the station fault models used by the robustness
// experiments: sensing faults that corrupt what a listening station
// observes (false-busy, false-idle), crash faults that wipe a station's
// protocol state and force a cold restart, and the combination of both.
//
// All models implement channel.FaultModel. They are stateless apart from
// construction-time parameters — one value may serve many runs and
// channels concurrently — and draw exclusively from the rng argument (the
// engine's dedicated fault stream). The number of draws per call depends
// only on the model's parameters, never on the outcome, so fault
// trajectories are reproducible by construction.
package faults

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// Model is the shared implementation behind the sensing, crash, and flaky
// fault kinds: sensing corruption with independent false-busy and
// false-idle probabilities, plus an independent per-access crash
// probability with a fixed down time. Construct with NewSensing, NewCrash,
// or NewFlaky; the zero Model injects nothing.
type Model struct {
	falseBusy float64
	falseIdle float64
	crashRate float64
	down      int64
}

// NewSensing returns a sensing-only fault model: a listening station at an
// Empty slot observes Noisy with probability falseBusy, and at a Noisy slot
// observes Empty with probability falseIdle. It returns an error if either
// probability is outside [0, 1] or both are zero.
func NewSensing(falseBusy, falseIdle float64) (*Model, error) {
	if err := checkProb("false-busy", falseBusy); err != nil {
		return nil, err
	}
	if err := checkProb("false-idle", falseIdle); err != nil {
		return nil, err
	}
	if falseBusy == 0 && falseIdle == 0 {
		return nil, fmt.Errorf("faults: sensing model with both probabilities zero injects nothing")
	}
	return &Model{falseBusy: falseBusy, falseIdle: falseIdle}, nil
}

// NewCrash returns a crash-only fault model: every non-succeeded channel
// access crashes its station with probability rate, wiping its protocol
// state; the station re-enters cold after down additional slots. It
// returns an error if rate is outside (0, 1] or down is outside
// [0, dist.MaxSlotSpan].
func NewCrash(rate float64, down int64) (*Model, error) {
	if err := checkProb("crash", rate); err != nil {
		return nil, err
	}
	if rate == 0 {
		return nil, fmt.Errorf("faults: crash model with rate zero injects nothing")
	}
	if down < 0 || down > dist.MaxSlotSpan {
		return nil, fmt.Errorf("faults: crash down time must be in [0, 2^60], got %d", down)
	}
	return &Model{crashRate: rate, down: down}, nil
}

// NewFlaky combines sensing and crash faults in one model. At least one of
// the three probabilities must be positive, and down is bounded as in
// NewCrash.
func NewFlaky(falseBusy, falseIdle, crashRate float64, down int64) (*Model, error) {
	if err := checkProb("false-busy", falseBusy); err != nil {
		return nil, err
	}
	if err := checkProb("false-idle", falseIdle); err != nil {
		return nil, err
	}
	if err := checkProb("crash", crashRate); err != nil {
		return nil, err
	}
	if falseBusy == 0 && falseIdle == 0 && crashRate == 0 {
		return nil, fmt.Errorf("faults: flaky model with all probabilities zero injects nothing")
	}
	if down < 0 || down > dist.MaxSlotSpan {
		return nil, fmt.Errorf("faults: flaky down time must be in [0, 2^60], got %d", down)
	}
	return &Model{falseBusy: falseBusy, falseIdle: falseIdle, crashRate: crashRate, down: down}, nil
}

func checkProb(name string, p float64) error {
	if !(p >= 0 && p <= 1) { // also catches NaN
		return fmt.Errorf("faults: %s probability must be in [0,1], got %v", name, p)
	}
	return nil
}

// Corrupt implements channel.FaultModel. When sensing faults are enabled it
// draws exactly one uniform per call — regardless of the outcome — so the
// fault stream's position is a function of the call sequence alone.
func (m *Model) Corrupt(id, slot int64, o channel.Outcome, rng *prng.Source) channel.Outcome {
	if m.falseBusy == 0 && m.falseIdle == 0 {
		return o
	}
	u := rng.Float64()
	switch o {
	case channel.OutcomeEmpty:
		if u < m.falseBusy {
			return channel.OutcomeNoisy
		}
	case channel.OutcomeNoisy:
		if u < m.falseIdle {
			return channel.OutcomeEmpty
		}
	}
	return o
}

// Crash implements channel.FaultModel: one uniform per call when crash
// faults are enabled, none otherwise.
func (m *Model) Crash(id, slot int64, rng *prng.Source) (int64, bool) {
	if m.crashRate == 0 {
		return 0, false
	}
	if rng.Float64() < m.crashRate {
		return m.down, true
	}
	return 0, false
}

var _ channel.FaultModel = (*Model)(nil)
