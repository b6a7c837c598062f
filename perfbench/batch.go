package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/experiments"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// Generated programs of the measured workloads: each is a procedure of one
// argument n, applied to n as in Definition 23. Their answers have closed
// forms (see perfbench_test.go), independent of the engine.
var measuredPrograms = map[string]string{
	// Deep non-tail recursions that write almost nothing to the store: the
	// continuation grows to depth n, so the GC rule's root walk is
	// quadratic over the run.
	"sum-rec":    `(define (f n) (if (zero? n) 0 (+ n (f (- n 1)))))`,
	"list-build": `(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (define (f n) (length (build n)))`,
	// Shallow loops that write the store on every iteration and allocate
	// pairs that die young.
	"vector-churn": `(define (f n) (let ((v (make-vector 8 0))) (let loop ((i 0)) (if (= i n) (vector-ref v 3) (begin (vector-set! v (remainder i 8) (cons i i)) (loop (+ i 1)))))))`,
	"set-churn":    `(define (f n) (define acc 0) (define (loop i) (if (zero? i) acc (begin (set! acc (+ acc (car (cons i '())))) (loop (- i 1))))) (loop n))`,
	// The closure-building Figure 6 probes (Theorem 25).
	"thunk-return":    experiments.ThunkReturn,
	"closure-capture": experiments.ClosureCapture,
}

// batchOp is one operation of a batch workload: a program, applied to the
// input n when n > 0, run on one machine.
type batchOp struct {
	prefix   string // expectation-key prefix: plain, deep or churn
	program  string
	source   string
	n        int
	variant  core.Variant
	measure  bool
	flatOnly bool
}

func (o batchOp) key() string {
	if o.n == 0 {
		return fmt.Sprintf("%s/%s/%s", o.prefix, o.program, o.variant.Name)
	}
	return fmt.Sprintf("%s/%s/%d/%s", o.prefix, o.program, o.n, o.variant.Name)
}

func (o batchOp) input() string {
	if o.n == 0 {
		return ""
	}
	return strconv.Itoa(o.n)
}

// options are the run options of the operation: unmeasured runs leave the
// GC rule off (the engine default); measured runs apply it after every
// transition, as the sweeps and /v1/measure do.
func (o batchOp) options() core.Options {
	opts := core.Options{Variant: o.variant}
	if o.measure {
		opts.Measure, opts.GCEvery, opts.FlatOnly = true, 1, o.flatOnly
	}
	return opts
}

// run performs the operation through the engine's public entry points:
// read, expand, prelude, run. meter, when non-nil, replaces the default
// space meter of a measured run.
func (o batchOp) run(meter space.Meter) (core.Result, error) {
	opts := o.options()
	opts.Meter = meter
	if o.n == 0 {
		return core.RunProgram(o.source, opts)
	}
	return core.RunApplication(o.source, o.input(), opts)
}

// check compares a finished operation with its expectation.
func (o batchOp) check(res core.Result, err error, want expectation) error {
	if err != nil {
		return err
	}
	if res.Err != nil {
		return res.Err
	}
	got := outcome{
		Answer: res.Answer, Steps: res.Steps, Allocs: res.Metrics.Counter(obs.MetricAllocs),
		Flat: res.PeakFlat, Linked: res.PeakLinked,
	}
	if got != want.outcome() {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func plainCorpusOps() []batchOp {
	var ops []batchOp
	for _, p := range corpus.All() {
		for _, v := range core.Variants {
			ops = append(ops, batchOp{prefix: "plain", program: p.Name, source: p.Source, variant: v})
		}
	}
	return ops
}

// measuredOps crosses programs with their input ladders and every machine.
func measuredOps(prefix string, ladders []ladder, flatOnly bool) []batchOp {
	var ops []batchOp
	for _, l := range ladders {
		for _, n := range l.inputs {
			for _, v := range core.Variants {
				ops = append(ops, batchOp{
					prefix: prefix, program: l.program, source: measuredPrograms[l.program],
					n: n, variant: v, measure: true, flatOnly: flatOnly,
				})
			}
		}
	}
	return ops
}

type ladder struct {
	program string
	inputs  []int
}

func measureDeepOps() []batchOp {
	return measuredOps("deep", []ladder{
		{"sum-rec", []int{16, 32, 64, 128}},
		{"list-build", []int{16, 32, 64, 128}},
	}, true)
}

func measureChurnOps() []batchOp {
	return measuredOps("churn", []ladder{
		{"vector-churn", []int{16, 32, 64}},
		{"set-churn", []int{16, 32, 64}},
		{"thunk-return", []int{8, 16}},
		{"closure-capture", []int{8, 16}},
	}, false)
}

// batchSetup is one prepared run of a batch workload.
type batchSetup struct {
	schedule []batchOp
	want     []expectation // aligned with schedule
	pass     work          // engine work of one pass
}

// newBatchSetup does everything a batch run needs before its first timed
// operation: it loads the recorded expectations, draws the seeded schedule,
// checks that the schedule's recorded work matches the recorded per-pass
// total, and warms up by running every program on Z_tail at every input
// (checking the outputs).
func newBatchSetup(workload string, ops []batchOp, seed int64) (*batchSetup, error) {
	ex, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	st := &batchSetup{schedule: append([]batchOp(nil), ops...)}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(st.schedule), func(i, j int) { st.schedule[i], st.schedule[j] = st.schedule[j], st.schedule[i] })
	var sum work
	for _, o := range st.schedule {
		w, err := ex.op(o.key())
		if err != nil {
			return nil, err
		}
		st.want = append(st.want, w)
		sum.Steps += int64(w.Steps)
		sum.Allocs += w.Allocs
	}
	st.pass = ex.Passes[workload]
	if sum != st.pass {
		return nil, fmt.Errorf("recorded pass work %+v, but the schedule's operations sum to %+v", st.pass, sum)
	}
	for _, o := range ops {
		if o.variant.Name != core.Tail.Name {
			continue
		}
		w, _ := ex.op(o.key())
		res, err := o.run(nil)
		if err := o.check(res, err, w); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.key(), err)
		}
	}
	return st, nil
}

// batchWindow is the outcome of one measurement window of whole passes.
type batchWindow struct {
	lat    []float64 // per-operation latency, seconds
	passes []float64 // per-pass duration, seconds
	alloc  uint64    // Go heap bytes allocated in the window
	got    work
}

// measureBatch runs whole passes of the schedule, one operation at a time,
// until budget has elapsed, checking every output.
func measureBatch(st *batchSetup, budget time.Duration, rep *report) batchWindow {
	var w batchWindow
	a0 := readRuntime()
	start := time.Now()
	for len(w.passes) == 0 || time.Since(start) < budget {
		p0 := time.Now()
		for i, o := range st.schedule {
			t0 := time.Now()
			res, err := o.run(nil)
			w.lat = append(w.lat, time.Since(t0).Seconds())
			rep.Attempted++
			if err := o.check(res, err, st.want[i]); err != nil {
				rep.fail(o.key(), err)
			}
			if err == nil {
				w.got.Steps += int64(res.Steps)
				w.got.Allocs += res.Metrics.Counter(obs.MetricAllocs)
			}
		}
		w.passes = append(w.passes, time.Since(p0).Seconds())
	}
	w.alloc = readRuntime().allocBytes - a0.allocBytes
	return w
}

func runPlainCorpus(cfg config) (*report, error) {
	return runBatch("plain-corpus", plainCorpusOps(), cfg)
}

func runMeasureDeep(cfg config) (*report, error) {
	return runBatch("measure-deep", measureDeepOps(), cfg)
}

func runMeasureChurn(cfg config) (*report, error) {
	return runBatch("measure-churn", measureChurnOps(), cfg)
}

// runBatch runs a batch workload as a closed loop of one. The process runs
// on one P (GOMAXPROCS=1): the operations are single-threaded, and a
// second P only lets the Go collector's share of the work float with
// whatever else the machine runs, which widened the spread between runs.
func runBatch(name string, ops []batchOp, cfg config) (*report, error) {
	runtime.GOMAXPROCS(1)
	st, setup, err := timedSetup(func() (*batchSetup, error) { return newBatchSetup(name, ops, cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true}
	if cfg.trace {
		return rep, traceBatch(rep, st, cfg)
	}
	w := measureBatch(st, cfg.seconds, rep)
	checkWork(rep, w.got, len(w.passes), st.pass)
	return rep, endToEnd(rep, setup, w.lat, 0, w.passes, len(st.schedule), w.alloc)
}
