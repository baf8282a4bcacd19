// Command perfbench is perspector's repository benchmark. One run
// measures one workload for a fixed time, checks that every output is
// correct, and prints one JSON result line last:
//
//	perfbench -workload compare_cold -seed 2023 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate, traced pass of the same workload gives the per-layer
// metrics. The metric names and units come from BENCHMARK.json in the
// working directory, so the code and the file cannot drift apart.
// README.md next to this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"perspector/internal/perf"
)

// defaultSeed is the paper's configuration seed; the pinned score and
// counter references in golden.json are taken at it.
const defaultSeed = 2023

// workloads maps each workload name to its body.
var workloads = map[string]func(*bench) error{
	"compare_cold": runCompareCold,
	"rescore_warm": runRescoreWarm,
	"service_open": runServiceOpen,
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line, the machine-readable summary of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// bench is one run's state: its settings, the metrics gathered so far
// and the correctness account.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	workers  int
	daemon   string // perspectord binary (service_open)
	dir      string // scratch directory of this run, removed at exit
	tr       *tracer
	cal      *calibrator // the reference kernel's times in this run (calib.go)

	attempted int
	failed    int
	problems  []string

	defs   map[string]string // metric name -> unit, for this run's mode
	values map[string]value
	counts map[string]int
	notes  []string

	oracle map[string]*perf.SuiteMeasurement // service_open: in-process measurements by suite

	ops []timing // the end-to-end op times in ms, scaled by setTimes
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: compare_cold, rescore_warm, service_open")
	seed := fs.Uint64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	daemon := fs.String("perspectord", "", "perspectord binary (service_open)")
	workdir := fs.String("workdir", ".bench_build/runs", "parent of the run's scratch directory")
	pin := fs.Bool("write-golden", false, "measure the compare at -seed and rewrite perfbench/golden.json (for changes meant to alter scores)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *pin {
		return writeGolden(*seed, runtime.NumCPU())
	}
	body, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	defs, err := loadDefs("BENCHMARK.json", *traced == 1)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		daemon:   *daemon,
		dir:      dir,
		defs:     defs,
		values:   map[string]value{},
		counts:   map[string]int{},
	}
	b.cal = &calibrator{workers: b.workers}
	if *traced == 1 {
		b.tr = newTracer()
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d workers %d\n",
		*workload, *seed, *seconds, *traced, b.workers)
	if err := body(b); err != nil {
		return 1, err
	}
	return b.report(stdout)
}

// loadDefs reads the metric names and units of one mode from the
// benchmark definition.
func loadDefs(path string, perLayer bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	defs := make(map[string]string, len(list))
	for _, d := range list {
		defs[d.Name] = d.Unit
	}
	return defs, nil
}

// set records a metric of this run's mode with its sample count. A
// metric of the other mode is ignored, so workload bodies can record
// both kinds without branching on the mode.
func (b *bench) set(name string, v float64, n int) {
	unit, ok := b.defs[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b.values[name] = value{Value: v, Unit: unit}
	b.counts[name] = n
}

// setTimes records the two end-to-end times at the reference speed
// (calib.go): the median set-up, from the set-ups' times in ms, and the
// median op, from the ops the workload recorded. It prints the raw
// medians and the reference kernel's median beside them.
func (b *bench) setTimes(setups []timing) {
	k := median(raws(b.cal.times))
	b.set("setup_s", median(b.cal.scale(setups))/1000, len(setups))
	b.set("op_p50_norm_ms", opMedian(b.ops, b.cal.scale(b.ops)), len(b.ops))
	b.set("host.kernel_ms", k, len(b.cal.times))
	b.note("reference speed %.1f ms; kernel median %.3f ms (n=%d), raw setup_s median %.6f s (n=%d), raw op median %.3f ms (n=%d)",
		refKernelMs, k, len(b.cal.times), median(raws(setups))/1000, len(setups), opMedian(b.ops, raws(b.ops)), len(b.ops))
}

// opMedian is the median of the op times vals, or, when the ops fall
// into groups, the geometric mean of the groups' medians. service_open's
// fresh jobs are grouped by suite: their latencies differ by up to 60×
// from suite to suite, and the median of all of them would sit wherever
// the middle suites' values happen to overlap.
func opMedian(ops []timing, vals []float64) float64 {
	groups := map[string][]float64{}
	for i, t := range ops {
		groups[t.group] = append(groups[t.group], vals[i])
	}
	if len(groups) == 1 {
		return median(vals)
	}
	var logSum float64
	for _, g := range groups {
		logSum += math.Log(median(g))
	}
	return math.Exp(logSum / float64(len(groups)))
}

// note adds a line of context to the report (what a metric stands for
// on this workload, or why it is zero).
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation.
func (b *bench) op() { b.attempted++ }

// fail counts a failed operation or check and keeps its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// report prints every metric with its unit and sample count, then the
// result line. Any correctness problem makes the exit code 1.
func (b *bench) report(w io.Writer) (int, error) {
	names := make([]string, 0, len(b.defs))
	for name := range b.defs {
		names = append(names, name)
	}
	sort.Strings(names)
	var absent []string
	for _, name := range names {
		v, ok := b.values[name]
		if !ok {
			// A per-layer metric of a layer this workload never calls is
			// a measured zero; an end-to-end metric must always exist.
			if b.tr == nil {
				return 1, fmt.Errorf("workload %s produced no value for metric %s", b.workload, name)
			}
			v = value{Value: 0, Unit: b.defs[name]}
			b.values[name] = v
			absent = append(absent, name)
		}
		fmt.Fprintf(w, "metric %-34s %16.6f %-9s n=%d\n", name, v.Value, v.Unit, b.counts[name])
	}
	if len(absent) > 0 {
		b.note("0 with n=0: not on this workload's path: %s", strings.Join(absent, " "))
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, p := range b.problems {
		fmt.Fprintln(w, "FAILED", p)
	}
	if b.attempted < 1 {
		b.attempted = 1
		b.fail("no operation was attempted")
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.values,
	}
	fmt.Fprintf(w, "attempted %d failed %d failed_frac %.6f\n",
		b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations or checks failed", b.failed, b.attempted)
	}
	return 0, nil
}

// until reports whether the measurement window starting at start is
// still open, always allowing at least min operations.
func (b *bench) until(start time.Time, done, min int) bool {
	return done < min || time.Since(start) < b.seconds
}

// subdir makes a fresh directory inside the run's scratch directory.
func (b *bench) subdir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix)
}

// --- statistics ---

// quantile returns the q-quantile of xs by nearest rank (q in (0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value (mean of the two middle ones for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- process accounting ---

// peakRSSMB reads the peak resident set (VmHWM) of a process in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeak restarts the kernel's peak-RSS account (VmHWM) of a
// process and reports whether it could.
func resetPeak(pid string) bool {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0) == nil
}
