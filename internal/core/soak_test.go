package core_test

import (
	. "lowsensing/internal/core"

	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// soakSampler is a recorder bound to its engine (sim.EngineBound) that
// hands the engine to fn after every resolved slot.
type soakSampler struct {
	e  *sim.Engine
	fn func(e *sim.Engine)
}

func (p *soakSampler) Bind(e *sim.Engine)           { p.e = e }
func (p *soakSampler) RecordSlot(obs.SlotEvent)     { p.fn(p.e) }
func (p *soakSampler) RecordPacket(obs.PacketEvent) {}

// TestLongStreamSoak runs half a million slots of jammed, steadily arriving
// traffic and checks the paper's "for all t" guarantees hold throughout:
// implicit throughput never collapses at any resolved slot and the backlog
// stays bounded. Skipped with -short.
func TestLongStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const horizon = 500_000
	src, err := arrivals.NewBernoulli(0.15, 0, 424242)
	if err != nil {
		t.Fatal(err)
	}
	jam, err := jamming.NewRandom(0.2, 0, 424243)
	if err != nil {
		t.Fatal(err)
	}
	minImplicit := 1.0
	var maxBacklog int64
	e, err := sim.NewEngine(sim.Params{
		Seed:       424244,
		Arrivals:   src,
		NewStation: MustFactory(Default()),
		Jammer:     jam,
		MaxSlots:   horizon,
		Recorder: &soakSampler{fn: func(e *sim.Engine) {
			if v := e.ImplicitThroughputNow(); v < minImplicit {
				minImplicit = v
			}
			if b := e.Backlog(); b > maxBacklog {
				maxBacklog = b
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	if r.Arrived < horizon/10 {
		t.Fatalf("suspiciously few arrivals: %d", r.Arrived)
	}
	if minImplicit < 0.05 {
		t.Fatalf("implicit throughput collapsed to %v at some checkpoint", minImplicit)
	}
	if maxBacklog > 2000 {
		t.Fatalf("backlog blew up to %d", maxBacklog)
	}
	// Everything but the in-flight tail must have been delivered.
	if undelivered := r.Arrived - r.Completed; undelivered > 200 {
		t.Fatalf("%d packets undelivered at horizon", undelivered)
	}
}
