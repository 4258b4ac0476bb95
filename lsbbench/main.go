// Command lsbbench is the repository benchmark. It runs one workload
// through lowsensing's public API, measures host time, checks the
// simulator's outputs, and prints every metric with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 4.71, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 every plain run is followed by a traced run of the
// same inputs, and the metrics are the per-layer ones, printed with a table
// of self-time shares by layer; the spans are written to
// .bench_build/traces/<workload>-<seed>.json.
//
// Build and run it from the repository root with lsbbench/run.sh, which
// passes its arguments through:
//
//	bash lsbbench/run.sh --workload batch-lsb --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are checked against reference.json.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes)) }

// run is the benchmark on workloads of the given sizes.
func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("lsbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads(sz) {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	writeRef := fs.String("write-reference", "", "run the workload once on the default seed, record its outputs in this reference file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name, sz)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*secs > 0) {
		fmt.Fprintf(stderr, "lsbbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(w, *writeRef); err != nil {
			fmt.Fprintln(stderr, "lsbbench:", err)
			return 1
		}
		return 0
	}
	traced := *trace == 1

	prov := readProvenance()
	fmt.Fprintf(stdout, "# lsbbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *secs, *trace)
	fmt.Fprintf(stdout, "# %s\n", prov)
	m, err := measure(w, *seed, time.Duration(*secs*float64(time.Second)), traced)
	if err != nil {
		fmt.Fprintln(stderr, "lsbbench:", err)
		return 1
	}
	for _, f := range m.failures {
		fmt.Fprintln(stderr, "lsbbench: FAILED:", f)
	}
	failed := len(m.failures)
	ok = failed == 0 && len(m.plain) > 0 && (!traced || len(m.traced) > 0)

	var metrics []metric
	if ok {
		if traced {
			metrics = m.perLayer()
			printLayerTable(stdout, w.name, m)
			path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", w.name, *seed))
			if err := writeSpans(path, w.name, *seed, prov, m); err != nil {
				fmt.Fprintln(stderr, "lsbbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "# spans written to %s\n", path)
		} else {
			metrics = m.endToEnd()
		}
	}
	if ok {
		fmt.Fprintf(stdout, "# %s\n", m.stealNote())
	}
	for _, mt := range metrics {
		fmt.Fprintf(stdout, "%-24s %16.6g %-6s %s\n", mt.name, mt.value, mt.unit, mt.note)
	}
	fmt.Fprintf(stdout, "%-24s %16.6g %-6s %d of %d runs\n", "failed_frac", float64(failed)/float64(m.attempted), "frac", failed, m.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, m.attempted, failed, make(map[string]value, len(metrics))}
	for _, mt := range metrics {
		v := mt.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "lsbbench: metric %s is %v\n", mt.name, v)
			out.Correct, v = false, 0
		}
		out.Metrics[mt.name] = value{v, mt.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "lsbbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printLayerTable prints the traced job wall split into self-time shares by
// layer.
func printLayerTable(w io.Writer, workload string, m *measurement) {
	fmt.Fprintf(w, "# layer self-time shares of the traced job wall, %s: %d traced runs, 1 call in %d timed\n",
		workload, len(m.traced), sampleEvery)
	fmt.Fprintf(w, "# %-10s %14s %10s %8s\n", "layer", "calls/run", "ns/call", "share")
	for _, r := range m.layerRows() {
		fmt.Fprintf(w, "# %-10s %14.0f %10.1f %8.4f\n", r.name, r.calls, r.nsPerCall, r.share)
	}
}

// writeSpans writes the traced runs' spans, one record per layer and run.
func writeSpans(path, workload string, seed uint64, prov provenance, m *measurement) error {
	type spanRecord struct {
		Layer   string `json:"layer"`
		Calls   int64  `json:"calls"`
		Sampled int64  `json:"sampled"`
		Ns      int64  `json:"sampled_ns"`
		ClockNs int64  `json:"clock_ns"`
	}
	type runRecord struct {
		WallNs    int64        `json:"wall_ns"`
		JobWallNs []int64      `json:"job_wall_ns,omitempty"`
		Spans     []spanRecord `json:"spans"`
	}
	doc := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Provenance  provenance  `json:"provenance"`
		SampleEvery int         `json:"sample_every"`
		Runs        []runRecord `json:"runs"`
	}{Workload: workload, Seed: seed, Provenance: prov, SampleEvery: sampleEvery}
	for _, r := range m.traced {
		rr := runRecord{WallNs: int64(r.wall)}
		for _, d := range r.out.jobWalls {
			rr.JobWallNs = append(rr.JobWallNs, int64(d))
		}
		for l, s := range r.layers {
			rr.Spans = append(rr.Spans, spanRecord{layerNames[l], s.calls, s.sampled, s.ns, s.clockNs})
		}
		rr.Spans = append(rr.Spans, spanRecord{"stats", r.stats.calls, r.stats.sampled, r.stats.ns, r.stats.clockNs})
		doc.Runs = append(doc.Runs, rr)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// provenance says what produced the numbers, so results from different
// machines or revisions are not mistaken for a comparison.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Modified   string `json:"modified"`
}

func readProvenance() provenance {
	p := provenance{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

func (p provenance) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s modified=%s",
		p.CPU, p.NProc, p.GOMAXPROCS, p.Go, p.Revision, p.Modified)
}

// reference.json holds, per workload, the digest and headline counts of the
// simulated statistics on the default seed.
//
//go:embed reference.json
var referenceJSON []byte

type referenceEntry struct {
	Digest    string `json:"digest"`
	Arrived   int64  `json:"arrived"`
	Completed int64  `json:"completed"`
	Events    int64  `json:"events"`
	Accesses  int64  `json:"accesses"`
}

type reference struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]referenceEntry `json:"workloads"`
}

func checkReference(workload string, got referenceEntry) error {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reading reference.json: %w", err)
	}
	want, ok := ref.Workloads[workload]
	switch {
	case ref.Seed != defaultSeed || !ok:
		return fmt.Errorf("reference.json has no entry for %s on seed %d", workload, defaultSeed)
	case got != want:
		return fmt.Errorf("simulated statistics differ from reference.json: %+v, want %+v", got, want)
	}
	return nil
}

// writeReference records the workload's outputs on the default seed into
// the reference file at path, keeping the other workloads' entries.
func writeReference(w workload, path string) error {
	spec, err := w.spec(defaultSeed, plainKind)
	if err != nil {
		return err
	}
	j, err := w.setup(spec)
	if err != nil {
		return err
	}
	out, err := j(nil)
	if err != nil {
		return err
	}
	ref := reference{Seed: defaultSeed, Workloads: map[string]referenceEntry{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ref); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if ref.Seed != defaultSeed {
		return fmt.Errorf("%s records seed %d, not %d", path, ref.Seed, defaultSeed)
	}
	ref.Workloads[w.name] = out.summary
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
