// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, checks every operation's
// output against the expectations recorded in expected.json, and prints one
// JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the engine
// or the spaced service waits on; with -trace 1 a separate, instrumented run
// prints the per-layer split, measured from outside the program by timing
// calls into each package's public functions and by reading the spans and
// counters spaced already exports. README.md explains the workloads, the
// metrics and the measured spread.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload plain-corpus --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// maxReportedFailures bounds the failed operations reported on stderr.
const maxReportedFailures = 5

// fail counts a failed operation and reports the first few.
func (r *report) fail(key string, err error) {
	if r.Failed < maxReportedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", key, err)
	}
	r.Failed++
	r.Correct = false
}

// checkWork fails the run when its engine work is not passes × the
// recorded per-pass work: a run cut short, or one that computed something
// else, did not do the benchmark's work.
func checkWork(rep *report, got work, passes int, pass work) {
	want := work{Steps: int64(passes) * pass.Steps, Allocs: int64(passes) * pass.Allocs}
	if got != want {
		fmt.Fprintf(os.Stderr, "perfbench: run did %+v of engine work over %d passes, want %+v\n", got, passes, want)
		rep.Correct = false
	}
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// traceFile receives the traced run's spans in the obs Chrome trace
	// format; empty when not tracing.
	traceFile string
}

// workloads maps each workload name to its run; README.md says why each
// was chosen.
var workloads = map[string]func(cfg config) (*report, error){
	"plain-corpus":  runPlainCorpus,
	"measure-deep":  runMeasureDeep,
	"measure-churn": runMeasureChurn,
	"service-mix":   runServiceMix,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "schedule seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds (whole passes are completed)")
	trace := flag.Int("trace", 0, "1 runs the instrumented per-layer pass instead of the end-to-end one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}
	if cfg.trace {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		cfg.traceFile = filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-%d.json", *name, *seed))
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRepeats is how many times a run performs its whole set-up; setup_s
// reports the median, so one cold or disturbed set-up does not move it.
const setupRepeats = 5

// timedSetup runs setup setupRepeats times, keeping the last instance, and
// returns it with the median set-up duration. Every instance but the last
// is released with discard. A collection before each set-up, outside the
// timing, starts every set-up from the same heap instead of leaving it the
// garbage of the one before.
func timedSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var durs []float64
	var last T
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i < setupRepeats-1 && discard != nil {
			discard(v)
		}
		last = v
	}
	return last, median(durs), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples a reported percentile must leave beyond
// it, so p90 needs at least 100 latencies.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

var errFewSamples = errors.New("too few operations for p90 with 10 samples beyond it; raise -seconds")

// percentiles returns the nearest-rank p50 and p90 of lat. With seg > 0
// it splits lat, in the order the operations finished, into consecutive
// segments of seg latencies (dropping a trailing partial one) and returns
// the median over the segments of each segment's p50 and p90, so a slow
// stretch of the machine shorter than half the run does not move them.
// Every segment must leave minTail samples beyond its p90.
func percentiles(lat []float64, seg int) (p50, p90 float64, err error) {
	if seg <= 0 {
		seg = len(lat)
	}
	if seg < 10*minTail || len(lat) < seg {
		return 0, 0, errFewSamples
	}
	var p50s, p90s []float64
	for i := 0; i+seg <= len(lat); i += seg {
		sorted := append([]float64(nil), lat[i:i+seg]...)
		sort.Float64s(sorted)
		p50s = append(p50s, percentile(sorted, 0.50))
		p90s = append(p90s, percentile(sorted, 0.90))
	}
	return median(p50s), median(p90s), nil
}

// endToEnd fills the end-to-end metrics from one measurement window:
// latencies in seconds and the segment length percentiles splits them into
// (0 for the whole window), the duration of every pass, the operations one
// pass completes, and the Go heap bytes allocated during the window. Throughput is taken from the median pass, so a few
// passes slowed by whatever else shares the machine do not move it.
func endToEnd(rep *report, setup float64, lat []float64, seg int, passes []float64, opsPerPass int, allocBytes uint64) error {
	p50, p90, err := percentiles(lat, seg)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	rep.set("throughput_per_s", float64(opsPerPass)/median(passes), "1/s")
	rep.set("latency_p50_ms", p50*1e3, "ms")
	rep.set("latency_p90_ms", p90*1e3, "ms")
	rep.set("alloc_mb_per_op", float64(allocBytes)/float64(len(lat))/1e6, "MB")
	return nil
}
