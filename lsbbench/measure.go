package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many times a run sets its workload up before each
// plain repetition. One set-up takes microseconds to milliseconds, so
// setup_s is the median of many, spread over the whole run.
const setupSamples = 50

// rep is one run of the workload. Its times exclude steal: they are the
// clock's readings scaled by received, the share of the CPU time the run
// asked for that the hypervisor gave it.
type rep struct {
	wall     time.Duration
	rawWall  time.Duration // as the clock read it
	received float64
	out      outcome
	alloc    uint64        // heap bytes allocated during the run
	gcCycles uint32        // GC cycles that completed during the run
	gcPause  time.Duration // stop-the-world pause time during the run
	layers   [numLayers]span
	stats    span // AddPacket replay (traced scenario runs)
}

// measurement is everything one benchmark invocation measured.
type measurement struct {
	seed      uint64
	setup     []time.Duration
	plain     []rep
	traced    []rep
	attempted int
	failures  []string
	want      referenceEntry // statistics of the first plain run
	maxRSS    float64        // MB
}

// measure runs the workload until budget has passed, at least once, or
// until a check fails. With traced set, every plain run is followed by a
// traced one; their statistics must be identical.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*measurement, error) {
	plainSpec, err := w.spec(seed, plainKind)
	if err != nil {
		return nil, err
	}
	var tracedSpec []byte
	if traced {
		if tracedSpec, err = w.spec(seed, tracedKind); err != nil {
			return nil, err
		}
	}
	m := &measurement{seed: seed}
	start := now()
	for len(m.failures) == 0 && (len(m.plain) == 0 || since(start) < budget) {
		m.run(w, plainSpec, false)
		if traced {
			m.run(w, tracedSpec, true)
		}
	}
	m.maxRSS = maxRSSMB()
	return m, nil
}

func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// run sets the workload up (setupSamples times for a plain run, timing
// each), runs the last set-up once, checks its outputs, and records the run
// unless a check failed.
func (m *measurement) run(w workload, spec []byte, traced bool) {
	m.attempted++
	label := "plain"
	if traced {
		label = "traced"
	}
	var j job
	var err error
	for range setupSamples {
		t0 := now()
		if j, err = w.setup(spec); err != nil {
			m.fail("%s run %d: set-up: %v", label, m.attempted, err)
			return
		}
		if traced {
			break
		}
		m.setup = append(m.setup, since(t0))
	}
	var probe *statsProbe
	if traced {
		spans.drain() // forget the spans validation opened
		probe = &statsProbe{}
	}
	runtime.GC()
	var before, after, flushed runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := readCPUClock()
	t0 := now()
	out, err := j(probe)
	wall := since(t0)
	got := received(c0, readCPUClock())
	runtime.ReadMemStats(&after)
	// TotalAlloc settles the allocations of the per-P allocation caches
	// only when a GC flushes them; without this GC it varies with which Ps
	// the run happened to allocate on.
	runtime.GC()
	runtime.ReadMemStats(&flushed)
	for i, d := range out.jobWalls {
		out.jobWalls[i] = scale(d, got)
	}
	r := rep{
		wall:     scale(wall, got),
		rawWall:  wall,
		received: got,
		out:      out,
		alloc:    flushed.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	if traced {
		r.layers = spans.drain()
		r.stats = probe.sp
		for l := range r.layers {
			r.layers[l].scale(got)
		}
		r.stats.scale(got)
	}
	if err != nil {
		m.fail("%s run %d: %v", label, m.attempted, err)
		return
	}
	switch {
	case len(m.plain) == 0 && !traced:
		m.want = out.summary
		if m.seed == defaultSeed {
			if err := checkReference(w.name, out.summary); err != nil {
				m.fail("%s run %d: %v", label, m.attempted, err)
				return
			}
		}
	case out.summary != m.want:
		m.fail("%s run %d: simulated statistics differ from the first plain run's: %+v, want %+v",
			label, m.attempted, out.summary, m.want)
		return
	}
	if traced {
		m.traced = append(m.traced, r)
	} else {
		m.plain = append(m.plain, r)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd returns the metrics of the plain runs.
func (m *measurement) endToEnd() []metric {
	var walls, eventRates, packetRates, allocs []float64
	var jobs []float64
	for _, r := range m.plain {
		s := r.wall.Seconds()
		walls = append(walls, s)
		eventRates = append(eventRates, float64(r.out.engine.EventsScheduled)/s)
		packetRates = append(packetRates, float64(r.out.summary.Completed)/s)
		allocs = append(allocs, float64(r.alloc)/1e6)
		jobs = append(jobs, jobMillis(r)...)
	}
	n := len(m.plain)
	runs := fmt.Sprintf("median of %d runs", n)
	jobNote := fmt.Sprintf("%d jobs over %d runs", len(jobs), n)
	return []metric{
		{"wall_s", quantile(walls, 0.5), "s", runs},
		{"setup_s", quantile(seconds(m.setup), 0.5), "s", fmt.Sprintf("median of %d set-ups", len(m.setup))},
		{"events_per_s", quantile(eventRates, 0.5), "1/s", runs},
		{"packets_per_s", quantile(packetRates, 0.5), "1/s", runs},
		{"alloc_mb", quantile(allocs, 0.5), "MB", runs},
		{"max_rss_mb", m.maxRSS, "MB", "peak resident set of the process"},
		{"job_ms.p50", quantile(jobs, 0.5), "ms", jobNote},
		{"job_ms.p99", quantile(jobs, 0.99), "ms", jobNote},
	}
}

// stealNote says how much the hypervisor took from the plain runs.
func (m *measurement) stealNote() string {
	var raw, got []float64
	for _, r := range m.plain {
		raw = append(raw, r.rawWall.Seconds())
		got = append(got, r.received)
	}
	return fmt.Sprintf("plain runs: median clock wall %.4g s, median %.1f%% of the CPU time asked for received; times exclude the stolen rest",
		quantile(raw, 0.5), 100*quantile(got, 0.5))
}

// jobMillis returns a run's per-job walls in ms; a single-run workload is
// one job.
func jobMillis(r rep) []float64 {
	if r.out.jobWalls == nil {
		return []float64{float64(r.wall) / 1e6}
	}
	out := make([]float64, len(r.out.jobWalls))
	for i, d := range r.out.jobWalls {
		out[i] = float64(d) / 1e6
	}
	return out
}

// perLayer returns the metrics of the traced run: calls and their time per
// layer from the traced runs, engine counts and runtime figures from the
// plain ones.
func (m *measurement) perLayer() []metric {
	rows := m.layerRows()
	sweep := m.plain[0].out.jobWalls != nil
	var plainWalls, tracedWalls, util, gcCycles, gcPause []float64
	for _, r := range m.plain {
		plainWalls = append(plainWalls, r.wall.Seconds())
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcPause = append(gcPause, float64(r.gcPause)/1e6)
		if sweep {
			util = append(util, jobWallNs(r)/(float64(r.wall)*float64(runtime.NumCPU())))
		}
	}
	for _, r := range m.traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}

	es := m.plain[0].out.engine
	slots := float64(es.SlotsResolved)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var jobs, epochs float64
	if sweep {
		jobs = float64(len(m.plain[0].out.jobWalls))
		tot, _ := m.tracedTotals()
		epochs = float64(tot[layerArrivals].slots) / float64(len(m.traced))
	}
	p, a, j, f, c := rows[layerProtocol], rows[layerArrivals], rows[layerJamming], rows[layerFaults], rows[layerRouter]
	stats, sim := rows[numLayers], rows[numLayers+1]
	return []metric{
		{"lowsensing.setup_ms", quantile(seconds(m.setup), 0.5) * 1e3, "ms", "parse, validate and build"},
		{"runner.jobs", jobs, "count", "jobs per run"},
		{"runner.worker_util", quantile(util, 0.5), "frac", "sum of job walls / (sweep wall x workers)"},
		{"cluster.route_calls", c.calls, "count", "Router.Route calls per run"},
		{"cluster.route_ns", c.nsPerCall, "ns", "per Route call"},
		{"cluster.epochs", epochs, "count", "barrier rounds (arrival slots) per run"},
		{"protocol.calls", p.calls, "count", "station factory, ScheduleNext, Observe and Reset calls per run"},
		{"protocol.ns_per_call", p.nsPerCall, "ns", ""},
		{"protocol.share", p.share, "frac", "of traced job wall"},
		{"arrivals.calls", a.calls, "count", "ArrivalSource.Next calls per run"},
		{"arrivals.ns_per_call", a.nsPerCall, "ns", ""},
		{"arrivals.share", a.share, "frac", "of traced job wall"},
		{"jamming.calls", j.calls, "count", "Jammer calls per run"},
		{"jamming.ns_per_call", j.nsPerCall, "ns", ""},
		{"jamming.share", j.share, "frac", "of traced job wall"},
		{"faults.calls", f.calls, "count", "FaultModel calls per run"},
		{"faults.ns_per_call", f.nsPerCall, "ns", ""},
		{"sim.self_share", sim.share, "frac", "traced job wall outside every traced layer"},
		{"sim.events", float64(es.EventsScheduled), "count", ""},
		{"sim.slots_resolved", slots, "count", ""},
		{"sim.accessors_per_slot", ratio(float64(m.plain[0].out.summary.Accesses), slots), "count", "channel accesses per resolved slot"},
		{"sim.batched_frac", ratio(float64(es.BatchedSlots), slots), "frac", "resolved slots on the batch fast path"},
		{"sim.wheel_cascades", float64(es.WheelCascades), "count", ""},
		{"sim.heap_overflows", float64(es.HeapOverflows), "count", ""},
		{"sim.stations_built", float64(es.StationsBuilt), "count", ""},
		{"sim.stations_reused", float64(es.StationsReused), "count", ""},
		{"sim.entries_recycled", float64(es.EntriesRecycled), "count", ""},
		{"sim.peak_backlog", float64(es.PeakBacklog), "count", ""},
		{"sim.peak_slot_table", float64(es.PeakSlotTable), "count", ""},
		{"stats.ns_per_packet", stats.nsPerCall, "ns", "EnergyStats.AddPacket on the packets a PacketSink receives"},
		{"runtime.gc_cycles", quantile(gcCycles, 0.5), "count", "per plain run"},
		{"runtime.gc_pause_ms", quantile(gcPause, 0.5), "ms", "per plain run"},
		{"trace.overhead_frac", quantile(tracedWalls, 0.5)/quantile(plainWalls, 0.5) - 1, "frac", "traced wall / plain wall - 1"},
	}
}

// layerRow is one layer's part of a run.
type layerRow struct {
	name      string
	calls     float64 // per traced run
	nsPerCall float64 // estimated from the sampled calls
	share     float64 // of the traced job wall, clock reads taken out
}

// layerRows splits the traced runs' job wall, less their clock reads, by
// layer: one row per traced layer, then stats, then sim. A row's share is
// its calls times its ns per call over that wall. The stats row times a
// replay of the engine's per-packet fold and so stands for the fold's cost
// inside the engine; sim is what remains.
func (m *measurement) layerRows() []layerRow {
	tot, stats := m.tracedTotals()
	var wall float64
	for _, r := range m.traced {
		wall += jobWallNs(r)
	}
	// A sampled call reads the clock three times; clockNs is one read per
	// sampled call.
	for _, s := range append(tot[:], stats) {
		wall -= 3 * float64(s.clockNs)
	}
	nt := float64(len(m.traced))
	wall /= nt
	rows := make([]layerRow, 0, numLayers+2)
	rest := 1.0
	add := func(name string, s span) {
		calls := float64(s.calls) / nt
		ns := s.nsPerCall()
		rows = append(rows, layerRow{name, calls, ns, calls * ns / wall})
		rest -= calls * ns / wall
	}
	for l, s := range tot {
		add(layerNames[l], s)
	}
	add("stats", stats)
	return append(rows, layerRow{name: "sim", share: rest})
}

// tracedTotals sums the traced runs' spans.
func (m *measurement) tracedTotals() (tot [numLayers]span, stats span) {
	for _, r := range m.traced {
		for l := range tot {
			tot[l].add(r.layers[l])
		}
		stats.add(r.stats)
	}
	return tot, stats
}

// jobWallNs is a run's job wall: the sum of its jobs' walls, in ns.
func jobWallNs(r rep) float64 {
	var ns float64
	for _, ms := range jobMillis(r) {
		ns += ms * 1e6
	}
	return ns
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuClock holds the process's CPU time and the machine's steal time: the
// time the hypervisor ran other guests while this one's vCPUs were ready
// to run.
type cpuClock struct{ cpu, steal time.Duration }

func readCPUClock() cpuClock {
	var c cpuClock
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// "cpu  user nice system idle iowait irq softirq steal ...", summed
		// over CPUs, in USER_HZ ticks of 10 ms.
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				c.steal = time.Duration(ticks) * 10 * time.Millisecond
			}
		}
	}
	return c
}

// received returns the share of the CPU time the process asked for between
// two readings that it got, cpu / (cpu + steal): 1 without steal. Steal
// accrues only on vCPUs that are ready to run, so for one busy thread or
// for several it is the share of the interval the work could run in.
func received(a, b cpuClock) float64 {
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
