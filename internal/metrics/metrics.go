// Package metrics collects time series and per-run summaries from
// simulations: backlog, implicit throughput, contention, the paper's
// potential function Φ(t), and per-packet energy statistics.
package metrics

import (
	"fmt"

	"lowsensing/internal/core"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

// Sample is one Collector observation. Slot numbers refer to resolved
// slots (slots in which some station accessed the channel); quantities are
// as of the end of that slot. Active counts the active stations exposing a
// backoff window, and WMin, WMedian and WMax summarize those windows (the
// median is the upper one, the element at index Active/2 in sorted order;
// all three are 0 when Active is 0).
type Sample struct {
	Slot               int64
	Backlog            int64
	Arrived            int64
	Completed          int64
	Jammed             int64
	ActiveSlots        int64
	ImplicitThroughput float64
	Contention         float64
	Potential          core.Potential
	Active             int
	WMin               float64
	WMedian            float64
	WMax               float64
}

// Collector samples engine state during a run: the backlog and counters,
// implicit throughput, the contention C(t), the paper's potential Φ(t),
// and the distribution of the active stations' backoff windows — the
// state Figure 1's analysis tracks. It is an obs.Recorder that reads the
// engine it is bound to (sim.EngineBound): attach it as a run's recorder,
// alone or inside obs.Multi, EveryN or SlotRange, and the engine binds it
// before the first slot. One Collector observes one engine; a cluster run
// rejects a Collector reachable from two channels. The zero value samples
// every resolved slot with the default potential coefficients; set Every
// to thin the series.
type Collector struct {
	// Every is the minimum number of slots between samples (0 or 1 means
	// sample every resolved slot).
	Every int64
	// Params are the potential-function coefficients; zero-value uses
	// core.DefaultPotentialParams.
	Params core.PotentialParams

	e       *sim.Engine
	samples []Sample
	nextAt  int64
	winBuf  []float64
}

// Bind implements sim.EngineBound.
func (c *Collector) Bind(e *sim.Engine) { c.e = e }

// RecordPacket implements obs.Recorder; the Collector samples per slot.
func (c *Collector) RecordPacket(obs.PacketEvent) {}

// RecordSlot implements obs.Recorder: it samples the bound engine if at
// least Every slots passed since the previous sample.
func (c *Collector) RecordSlot(ev obs.SlotEvent) {
	slot := ev.Slot
	if slot < c.nextAt {
		return
	}
	e := c.e
	if e == nil {
		panic("metrics: Collector received a slot before being bound to an engine; attach it as the run's recorder")
	}
	every := c.Every
	if every < 1 {
		every = 1
	}
	c.nextAt = slot + every

	params := c.Params
	if params == (core.PotentialParams{}) {
		params = core.DefaultPotentialParams()
	}
	c.winBuf = c.winBuf[:0]
	e.VisitActiveWindows(func(w float64) { c.winBuf = append(c.winBuf, w) })

	s := Sample{
		Slot:               slot,
		Backlog:            e.Backlog(),
		Arrived:            e.Arrived(),
		Completed:          e.Completed(),
		Jammed:             e.JammedSoFar(),
		ActiveSlots:        e.ActiveSlotsSoFar(),
		ImplicitThroughput: e.ImplicitThroughputNow(),
		Contention:         core.Contention(c.winBuf),
		Potential:          core.Measure(c.winBuf, params),
		Active:             len(c.winBuf),
	}
	// The window summary reorders winBuf, so it runs after the float sums
	// above, which depend on arrival order.
	if n := len(c.winBuf); n > 0 {
		s.WMin, s.WMax = c.winBuf[0], c.winBuf[0]
		for _, w := range c.winBuf[1:] {
			if w < s.WMin {
				s.WMin = w
			}
			if w > s.WMax {
				s.WMax = w
			}
		}
		s.WMedian = selectKth(c.winBuf, n/2)
	}
	c.samples = append(c.samples, s)
}

// selectKth returns the element that would sit at index k if xs were
// sorted ascending, reordering xs in place (Hoare's selection with a
// middle pivot: expected linear time, no allocation).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// Samples returns the collected series.
func (c *Collector) Samples() []Sample { return c.samples }

// MaxBacklog returns the largest sampled backlog.
func (c *Collector) MaxBacklog() int64 {
	var m int64
	for _, s := range c.samples {
		if s.Backlog > m {
			m = s.Backlog
		}
	}
	return m
}

// MinImplicitThroughput returns the smallest sampled implicit throughput,
// or 1 if nothing was sampled.
func (c *Collector) MinImplicitThroughput() float64 {
	m := 1.0
	for _, s := range c.samples {
		if s.ImplicitThroughput < m {
			m = s.ImplicitThroughput
		}
	}
	return m
}

// Series extracts one named field of the samples as a float64 slice. Valid
// names: "slot", "backlog", "implicit", "contention", "phi", "potN",
// "potH", "potL", "active", "wmin", "wmedian", "wmax". It panics on an
// unknown name (caller bug).
func (c *Collector) Series(name string) []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		switch name {
		case "slot":
			out[i] = float64(s.Slot)
		case "backlog":
			out[i] = float64(s.Backlog)
		case "implicit":
			out[i] = s.ImplicitThroughput
		case "contention":
			out[i] = s.Contention
		case "phi":
			out[i] = s.Potential.Phi
		case "potN":
			out[i] = s.Potential.N
		case "potH":
			out[i] = s.Potential.H
		case "potL":
			out[i] = s.Potential.L
		case "active":
			out[i] = float64(s.Active)
		case "wmin":
			out[i] = s.WMin
		case "wmedian":
			out[i] = s.WMedian
		case "wmax":
			out[i] = s.WMax
		default:
			panic(fmt.Sprintf("metrics: unknown series %q", name))
		}
	}
	return out
}

// EnergyModel converts channel-access counts into physical energy, for
// battery-lifetime projections (see examples/sensor_energy). All values
// are in joules.
type EnergyModel struct {
	// SendJ is the cost of transmitting for one slot.
	SendJ float64
	// ListenJ is the cost of receiving/listening for one slot.
	ListenJ float64
	// SleepJ is the cost of sleeping through one slot (often ~0 but not
	// zero on real radios).
	SleepJ float64
}

// DefaultEnergyModel returns order-of-magnitude numbers for an
// 802.15.4-class radio: 60 µJ to transmit or receive for one slot, 60 nJ
// to sleep through one.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{SendJ: 60e-6, ListenJ: 60e-6, SleepJ: 60e-9}
}

// PacketJoules returns the energy one packet spent from arrival to
// departure (or to end-of-run for undelivered packets, using lastSlot).
func (m EnergyModel) PacketJoules(p sim.PacketStats, lastSlot int64) float64 {
	end := p.Departure
	if end < 0 {
		end = lastSlot
	}
	alive := end - p.Arrival + 1
	if alive < 0 {
		alive = 0
	}
	sleeping := alive - p.Sends - p.Listens
	if sleeping < 0 {
		sleeping = 0
	}
	return float64(p.Sends)*m.SendJ + float64(p.Listens)*m.ListenJ + float64(sleeping)*m.SleepJ
}

// RunJoules sums PacketJoules over a run and also returns the mean per
// packet (0 if no packets). It reads the retained per-packet records, so
// the run must have been made with sim.Params.RetainPackets; for long
// streams, fold PacketJoules over a PacketSink instead.
func (m EnergyModel) RunJoules(r sim.Result) (total, meanPerPacket float64) {
	for _, p := range r.Packets {
		total += m.PacketJoules(p, r.LastSlot)
	}
	if len(r.Packets) > 0 {
		meanPerPacket = total / float64(len(r.Packets))
	}
	return total, meanPerPacket
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) of a sample:
// 1 means perfectly equal, 1/n means one packet took everything. It is the
// standard measure for the fairness question the paper's conclusion raises
// (LOW-SENSING BACKOFF is not guaranteed fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// LatencySample extracts the latency of every delivered packet. It reads
// the retained per-packet records, so the run must have been made with
// sim.Params.RetainPackets (or use a PacketSink and collect latencies
// directly on streams too long to retain).
func LatencySample(r sim.Result) []float64 {
	out := make([]float64, 0, len(r.Packets))
	for _, p := range r.Packets {
		if lat := p.Latency(); lat >= 0 {
			out = append(out, float64(lat))
		}
	}
	return out
}

// EnergySummary aggregates per-packet channel-access statistics of a
// completed run.
type EnergySummary struct {
	Sends    stats.Summary
	Listens  stats.Summary
	Accesses stats.Summary
	// Latency summarizes slots-to-success over delivered packets only.
	Latency stats.Summary
	// Undelivered counts packets still in the system at the end.
	Undelivered int
}

// SummarizeEnergy computes per-packet energy and latency statistics from a
// run result. It reads the run's streaming accumulators (Result.Energy),
// which the engine maintains in constant memory for every run — no
// per-packet retention needed. N, Mean, Min and Max are exact; Median, P90
// and P99 come from the accumulators' log-bucketed histograms (exact below
// 16, within 1/8 relative resolution above). Hand-built results with only
// Packets populated are folded through the same accumulators first.
func SummarizeEnergy(r sim.Result) EnergySummary {
	es := r.Energy
	if es.Packets() == 0 && len(r.Packets) > 0 {
		for _, p := range r.Packets {
			es.AddPacket(p)
		}
	}
	return EnergySummary{
		Sends:       es.Sends.Summary(),
		Listens:     es.Listens.Summary(),
		Accesses:    es.Accesses.Summary(),
		Latency:     es.Latency.Summary(),
		Undelivered: int(es.Undelivered),
	}
}
