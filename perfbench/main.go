// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the edgetune modules,
// checks that every output is correct, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 a separate traced run reports the per-layer
// metrics, timed from this package around calls into each layer.
//
// Workloads (all closed loops: every caller waits for its reply):
//
//	tune-batch  one caller runs sequential tuning jobs
//	serve-hot   one caller of an inference server; every request is a
//	            historical-store hit
//	serve-cold  two callers share one inference server; every request
//	            carries a new signature and is tuned, stored and fsynced
//
// The workload's inputs derive from -seed alone. See README.md for why
// each workload exists and which end-to-end metric each per-layer
// metric should move.
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
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// perLayer lists the traced run's metrics. A workload that never calls
// into a layer reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"tensor.matmul.gflops", "GFLOP/s"},
	{"tensor.matmul_at.gflops", "GFLOP/s"},
	{"tensor.matmul_bt.gflops", "GFLOP/s"},
	{"tensor.allocs_per_call", "count"},
	{"nn.step_us", "us"},
	{"nn.allocs_per_step", "count"},
	{"nn.bytes_per_step", "B"},
	{"nn.kernel_share", "ratio"},
	{"workload.data_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"trial.run_ms", "ms"},
	{"trial.nn_share", "ratio"},
	{"trial.replay_match", "ratio"},
	{"core.rung_ms", "ms"},
	{"core.tuner_self_share", "ratio"},
	{"core.infer_hit_ratio", "ratio"},
	{"core.queued_ahead_p99", "count"},
	{"core.coalesced", "count"},
	{"core.rejections", "count"},
	{"search.sample_us", "us"},
	{"search.allocs_per_sample", "count"},
	{"device.estimate_ns", "ns"},
	{"store.fsyncs_per_put", "count"},
	{"store.fsync_us", "us"},
	{"store.wal_bytes_per_put", "B"},
	{"store.drain_ms", "ms"},
	{"store.get_ns", "ns"},
	{"go.mallocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its output.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is the scratch directory for stores and spans, inside the
	// working directory.
	dir string

	res    result
	notes  []string // human-readable summary lines, with sample counts
	checks []string // failed output checks
	spans  *spanLog
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tune-batch, serve-hot or serve-cold")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	workloads := map[string]func(*run) error{
		"tune-batch": runTuneBatch,
		"serve-hot":  runServeHot,
		"serve-cold": runServeCold,
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want tune-batch, serve-hot or serve-cold)", *name)
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	base := filepath.Join(wd, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed:    *seed,
		seconds: float64(*seconds),
		trace:   *trace == 1,
		dir:     dir,
		res:     result{Metrics: map[string]metric{}},
	}
	if r.trace {
		r.spans = newSpanLog()
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if r.trace {
		var idle []string
		for _, m := range perLayer {
			if _, ok := r.res.Metrics[m.name]; !ok {
				r.set(m.name, 0, m.unit)
				idle = append(idle, m.name)
			}
		}
		if len(idle) > 0 {
			r.note("layers that do no work on this workload, reported as 0: %v", idle)
		}
		path := filepath.Join(wd, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := r.spans.save(path); err != nil {
			return err
		}
		r.note("spans: %d written to %s", r.spans.len(), path)
	}
	if !r.trace {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	r.res.Correct = len(r.checks) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, c := range r.checks {
		fmt.Fprintln(out, "# CHECK FAILED:", c)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; the run then reports
// correct=false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// setup runs fn setupReps times and reports the median as setup_s; the
// value of the last repetition is the one the run uses.
func setup[T any](r *run, fn func(rep int) (T, error)) (T, error) {
	var v T
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		var err error
		v, err = fn(rep)
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if !r.trace {
		r.set("setup_s", median(times), "s")
	}
	r.note("setup_s: median of %d set-ups %v", len(times), times)
	return v, nil
}

// window is one slice of a timed phase: ops completed, its wall and
// CPU time, and the latency quantiles (ns) of the ops sampled in it.
type window struct {
	ops       float64
	wall, cpu time.Duration
	p50, p99  float64
	samples   int
}

// setLatencies sets the window's latency quantiles from the sampled
// latencies lat (ns), which it sorts in place.
func (w *window) setLatencies(lat []float64) {
	sort.Float64s(lat)
	w.p50, w.p99, w.samples = sortedQuantile(lat, 0.50), sortedQuantile(lat, 0.99), len(lat)
}

// reportWindows sets the end-to-end metrics from a timed phase cut into
// windows: each metric is the median over windows, so a burst of load
// from outside the process moves it less than a whole-run mean. It
// returns the ops completed.
func (r *run) reportWindows(ws []window, what string) float64 {
	var tput, cpu, p50, p99 []float64
	var ops float64
	samples := 0
	for _, w := range ws {
		ops += w.ops
		samples += w.samples
		tput = append(tput, w.ops/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/w.ops)
		p50 = append(p50, w.p50/1e3)
		p99 = append(p99, w.p99/1e3)
	}
	r.set("ops_per_s", median(tput), "1/s")
	r.set("cpu_us_per_op", median(cpu), "us")
	r.set("p50_us", median(p50), "us")
	r.set("p99_us", median(p99), "us")
	r.note("end-to-end metrics: medians over %d %s; %.0f ops, %d latency samples", len(ws), what, ops, samples)
	return ops
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for xs already in ascending order.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// gcStats is a runtime/metrics reading.
type gcStats struct {
	mallocs, bytes, cycles uint64
	gcCPU, totalCPU        float64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcStats {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return gcStats{
		mallocs:  s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		cycles:   s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
	}
}

// setGoRuntime reports the Go runtime per-layer metrics for the phase
// between two readings that completed ops operations.
func (r *run) setGoRuntime(before, after gcStats, n float64) {
	r.set("go.mallocs_per_op", float64(after.mallocs-before.mallocs)/n, "count")
	r.set("go.bytes_per_op", float64(after.bytes-before.bytes)/n, "B")
	r.set("go.gc_cycles", float64(after.cycles-before.cycles), "count")
	share := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		share = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("go.gc_cpu_share", share, "ratio")
}

// allocCount measures heap allocations (objects, bytes) made by fn.
func allocCount(fn func()) (objects, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
