// Command perfbench is the repository's end-to-end benchmark. It drives the
// program's public Go API in one process and prints, as the last line of
// standard output, one JSON object with the run's correctness verdict and
// its metrics; a readable report goes to standard error.
//
// Workloads (every one generated from -seed):
//
//   - sweep-small: cold cells over every target x {matmul, rectmm, matvec}
//     x all four pipelines x the feasible sizes in {16, 32, 64}, each grid
//     pass on a fresh in-memory Runner. Pass pipeline, ir.Verify and
//     codegen dominate a cell.
//   - sweep-large: cold cells over every target x {matmul, rectmm} x
//     {base, all} x {256, 512}, each grid pass on a fresh Runner over a
//     fresh DiskStore. The device model and the golden check dominate.
//   - serve-zipf: an in-process serve.Server on a loopback listener, booted
//     warm from a DiskStore holding a seeded half of the feasible n <= 128
//     cells, driven by two closed-loop clients with a seeded zipf mix of
//     GET /v1/run.
//
// With -trace 0 the run reports the end-to-end metrics (BENCHMARK.json
// end_to_end), measured with no instrumentation. With -trace 1 it
// alternates untraced and traced phases and reports the per-layer metrics
// (per_layer): the traced phases time the calls into each layer's public
// functions from outside the program.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// workers is the load the benchmark is sized for: two runner workers on
// the sweeps, two closed-loop clients on serve-zipf.
const workers = 2

// setupReps is how many times a sweep repeats its set-up; setup_s is the
// median.
const setupReps = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: correctness counts, metrics and
// human-readable notes for standard error.
type outcome struct {
	attempted int
	failed    int
	// problems lists correctness-gate failures; any entry fails the run.
	problems []string
	metrics  map[string]metric
	notes    []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"sweep-small": func(ctx context.Context, c config) (*outcome, error) { return runSweep(ctx, c, sweepSmall) },
	"sweep-large": func(ctx context.Context, c config) (*outcome, error) { return runSweep(ctx, c, sweepLarge) },
	"serve-zipf":  runServe,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: sweep-small, sweep-large or serve-zipf")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	c.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	if c.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	rep, err := run(context.Background(), c, os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", c.workload, c.seed, c.seconds, trace)
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its report; notes and
// correctness problems go to log.
func run(ctx context.Context, c config, log io.Writer) (report, error) {
	fn, ok := workloads[c.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want sweep-small, sweep-large or serve-zipf)", c.workload)
	}
	o, err := fn(ctx, c)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", c.workload, err)
	}
	if o.attempted < 1 {
		return report{}, fmt.Errorf("%s: no operation was attempted", c.workload)
	}
	fmt.Fprintf(log, "perfbench %s seed=%d trace=%t: %d attempted, %d failed (failed_frac %g)\n",
		c.workload, c.seed, c.trace, o.attempted, o.failed, float64(o.failed)/float64(o.attempted))
	for _, n := range o.notes {
		fmt.Fprintf(log, "  %s\n", n)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(log, "  CORRECTNESS: %s\n", p)
	}
	return report{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// cpuSeconds returns the process's CPU time (user + system) so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile reads the q-quantile of an ascending slice by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail reads the q-quantile of an ascending slice, or, when the samples
// are too few for that, the highest quantile that leaves at least ten
// samples beyond it (never below the median). It returns the quantile
// read too.
func tail(sorted []time.Duration, q float64) (time.Duration, float64) {
	q = max(min(q, 1-10/float64(len(sorted))), 0.5)
	return quantile(sorted, q), q
}

// setLatency reports the median and p90 of the per-operation latencies in
// microseconds. The tail is p90 rather than p99 because on a shared
// machine the slowest 1% of ~100 us requests are set by the hypervisor
// descheduling a virtual CPU, not by the program; p99 is reported with the
// per-layer metrics.
func setLatency(o *outcome, lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p90, q := tail(lat, 0.9)
	o.set("p50_us", "us", us(quantile(lat, 0.5)))
	o.set("p90_us", "us", us(p90))
	o.note("latency: %d samples, p90_us is the %.4g quantile", len(lat), q)
}

// setProcessLayers reports, for a traced run's measured phase, the p99 of
// the untraced per-operation latencies, the process's CPU time beside the
// phase's wall time, and the process's peak resident set.
func setProcessLayers(o *outcome, lat []time.Duration, cpu float64, wall time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99, q := tail(lat, 0.99)
	o.set("latency.p99_us", "us", us(p99))
	o.set("process.cpu_s", "s", cpu)
	o.set("process.wall_s", "s", wall.Seconds())
	o.set("process.peak_rss_mb", "MB", peakRSSMB())
	o.note("latency: %d untraced samples, latency.p99_us is the %.4g quantile", len(lat), q)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
