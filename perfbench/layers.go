package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"tailspace/internal/ast"
	"tailspace/internal/core"
	"tailspace/internal/env"
	"tailspace/internal/expand"
	"tailspace/internal/obs"
	"tailspace/internal/prim"
	"tailspace/internal/sexpr"
	"tailspace/internal/space"
	"tailspace/internal/value"
)

// The traced run measures every layer from outside: it times calls into
// each package's public functions, reruns an operation with parts of the
// engine switched off, and reads the spans and counters spaced exports.
// No program code is instrumented.

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcCPU: s[2].Value.Float64()}
}

// timedMeter wraps a space.Meter and times its Flat and Linked calls. The
// store hooks the wrapped meter installs in Attach run inside store
// operations and are charged to whichever layer performs them.
type timedMeter struct {
	m                      space.Meter
	flat, linked           time.Duration
	flatCalls, linkedCalls int
}

func (t *timedMeter) Attach(st *value.Store) { t.m.Attach(st) }

func (t *timedMeter) Flat(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	t0 := time.Now()
	n := t.m.Flat(val, rho, k, st)
	t.flat += time.Since(t0)
	t.flatCalls++
	return n
}

func (t *timedMeter) Linked(val value.Value, rho env.Env, k value.Cont, st *value.Store) int {
	t0 := time.Now()
	n := t.m.Linked(val, rho, k, st)
	t.linked += time.Since(t0)
	t.linkedCalls++
	return n
}

// perLayerMetrics lists every per-layer metric with its unit, in output
// order. Every workload prints all of them; a layer a workload does not
// exercise reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.collect_s", "s"}, {"space.linked_s", "s"}, {"space.linked_calls", "count"},
	{"space.flat_s", "s"}, {"space.flat_calls", "count"}, {"core.observe_s", "s"},
	{"core.step_s", "s"},
	{"core.step_s.stack", "s"}, {"core.step_s.gc", "s"}, {"core.step_s.tail", "s"}, {"core.step_s.evlis", "s"},
	{"core.step_s.free", "s"}, {"core.step_s.sfs", "s"}, {"core.step_s.naive", "s"}, {"core.step_s.spaceff", "s"},
	{"prim.global_s", "s"}, {"sexpr.read_s", "s"}, {"expand.expand_s", "s"}, {"analysis.classify_s", "s"},
	{"service.request_s", "s"}, {"service.http_s", "s"}, {"service.expand_s", "s"},
	{"service.cache_lookup_s", "s"}, {"service.queue_wait_s", "s"}, {"service.run_s", "s"},
	{"service.measure_s", "s"},
	{"service.cache_hits", "count"}, {"service.cache_misses", "count"}, {"service.cache_joins", "count"},
	{"service.cache_hit_ratio", "ratio"}, {"service.non2xx", "count"},
	{"core.steps", "count"}, {"expand.nodes", "count"}, {"core.collections", "count"},
	{"core.reclaimed", "count"}, {"value.allocs", "count"}, {"value.heap_peak", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"},
	{"trace.overhead", "ratio"},
}

// layerAcc accumulates per-layer totals over the traced operations.
type layerAcc struct {
	ops int
	sum map[string]float64
	// stepOps counts the engine step reruns per machine, the denominator
	// of core.step_s.<machine>.
	stepOps map[string]int
	spans   []obs.Event
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, stepOps: map[string]int{}}
}

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// span records one of the benchmark's own spans around a layer call.
func (a *layerAcc) span(tc *obs.TraceContext, name string, start time.Time, d time.Duration) {
	a.spans = append(a.spans, tc.Span(name, start, d))
}

// timed runs f and returns its duration, recording a span named name.
func (a *layerAcc) timed(tc *obs.TraceContext, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	a.span(tc, name, t0, d)
	return d
}

// probeEngine reruns one engine computation — program applied to input
// (input "" for a whole program) under opts — layer by layer, and adds
// its figures to the accumulator:
//
//   - sexpr.read_s and expand.expand_s time sexpr.ReadAll and
//     expand.Program on the sources;
//   - prim.global_s times prim.Global, the prelude every run builds;
//   - core.step_s is a rerun with Measure and the GC rule off, minus the
//     prelude;
//   - core.collect_s is a rerun with Measure off and GCEvery 1, minus the
//     step rerun (0 when opts leave the GC rule off);
//   - space.flat_s and space.linked_s come from a measured rerun whose
//     meter is a timedMeter around space.NewDeltaMeter, and core.observe_s
//     is that rerun minus its meter time minus the GCEvery 1 rerun.
//
// It returns the measured rerun's result (the step rerun's when opts is
// unmeasured) so the caller can check it.
func (a *layerAcc) probeEngine(tc *obs.TraceContext, program, input string, opts core.Options) (core.Result, error) {
	for _, src := range []string{program, input} {
		if src == "" {
			continue
		}
		if _, err := a.readExpand(tc, src); err != nil {
			return core.Result{}, err
		}
	}
	pre := a.timed(tc, "prim.global", func() { prim.Global() })
	a.add("prim.global_s", pre.Seconds())

	e, err := buildExpr(program, input)
	if err != nil {
		return core.Result{}, err
	}
	runWith := func(name string, o core.Options) (core.Result, time.Duration) {
		r := core.NewRunner(o)
		var res core.Result
		d := a.timed(tc, name, func() { res = r.Run(e) })
		return res, d
	}
	stepOpts := opts
	stepOpts.Measure, stepOpts.GCEvery, stepOpts.Meter = false, core.GCEveryOff, nil
	res, step := runWith("core.run.step", stepOpts)
	a.add("core.step_s", (step - pre).Seconds())
	a.add("core.step_s."+opts.Variant.Name, (step - pre).Seconds())
	a.stepOps[opts.Variant.Name]++
	gcOff := opts.GCEvery < 0 || opts.GCEvery == 0 && !opts.Measure // the engine's default
	if gcOff {
		return res, nil
	}
	gcOpts := stepOpts
	gcOpts.GCEvery = opts.GCEvery
	if gcOpts.GCEvery == 0 {
		gcOpts.GCEvery = 1
	}
	_, gc := runWith("core.run.gc", gcOpts)
	a.add("core.collect_s", (gc - step).Seconds())
	if !opts.Measure {
		return res, nil
	}
	tm := &timedMeter{m: space.NewDeltaMeter(opts.CostModel)}
	measOpts := opts
	measOpts.Meter = tm
	res, meas := runWith("core.run.measured", measOpts)
	a.add("space.flat_s", tm.flat.Seconds())
	a.add("space.linked_s", tm.linked.Seconds())
	a.add("space.flat_calls", float64(tm.flatCalls))
	a.add("space.linked_calls", float64(tm.linkedCalls))
	a.add("core.observe_s", (meas - tm.flat - tm.linked - gc).Seconds())
	return res, nil
}

// readExpand times sexpr.ReadAll and expand.Program on src.
func (a *layerAcc) readExpand(tc *obs.TraceContext, src string) (ast.Expr, error) {
	var data []sexpr.Datum
	var e ast.Expr
	var err error
	read := a.timed(tc, "sexpr.read", func() { data, err = sexpr.ReadAll(src) })
	if err != nil {
		return nil, err
	}
	exp := a.timed(tc, "expand.expand", func() { e, err = expand.Program(data) })
	if err != nil {
		return nil, err
	}
	a.add("sexpr.read_s", read.Seconds())
	a.add("expand.expand_s", exp.Seconds())
	return e, nil
}

// buildExpr is the expression the engine's public entry points run:
// the expanded program, or the Definition 23 application ((P) D).
func buildExpr(program, input string) (ast.Expr, error) {
	if input == "" {
		return expand.ParseProgram(program)
	}
	return core.ApplicationExpr(program, input)
}

// addResult adds the engine's exact counts for one finished run.
func (a *layerAcc) addResult(res core.Result) {
	a.add("core.steps", float64(res.Steps))
	a.add("expand.nodes", float64(res.ProgramSize))
	a.add("core.collections", float64(res.Collections))
	a.add("core.reclaimed", float64(res.Collected))
	a.add("value.allocs", float64(res.Metrics.Counter(obs.MetricAllocs)))
	a.add("value.heap_peak", float64(res.PeakHeap))
}

// addRuntime adds the Go runtime's work between two samples.
func (a *layerAcc) addRuntime(before, after runtimeSample) {
	a.add("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
	a.add("go.gc_cpu_s", after.gcCPU-before.gcCPU)
}

// perOp turns the totals into per-operation figures: core.step_s.<machine>
// is per operation on that machine, everything else per traced operation.
func (a *layerAcc) perOp() map[string]float64 {
	out := map[string]float64{}
	for name, v := range a.sum {
		if m, ok := strings.CutPrefix(name, "core.step_s."); ok {
			out[name] = v / float64(a.stepOps[m])
			continue
		}
		out[name] = v / float64(a.ops)
	}
	return out
}

// setLayers puts every per-layer metric into the report; a layer the
// workload does not exercise reads 0.
func setLayers(rep *report, vals map[string]float64) {
	for _, m := range perLayerMetrics {
		rep.set(m.name, vals[m.name], m.unit)
	}
}

// writeTrace writes spans in the obs Chrome trace_event format.
func writeTrace(path, label string, spans []obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, label, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceBatch is the traced run of a batch workload. The first half of the
// budget is an untraced window, the baseline of trace.overhead; the second
// half runs whole traced passes: each operation runs as in the untraced
// window, with the Go runtime's counters read around it and a span
// recorded, and is then probed layer by layer (probeEngine).
func traceBatch(rep *report, st *batchSetup, cfg config) error {
	base := measureBatch(st, cfg.seconds/2, rep)
	checkWork(rep, base.got, len(base.passes), st.pass)
	untraced := sum(base.lat) / float64(len(base.lat))

	acc := newLayerAcc()
	var traced time.Duration
	var got work
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < cfg.seconds/2; passes++ {
		for i, o := range st.schedule {
			tc := obs.NewTraceContext("")
			r0 := readRuntime()
			t0 := time.Now()
			res, err := o.run(nil)
			d := time.Since(t0)
			r1 := readRuntime()
			acc.span(tc, "op "+o.key(), t0, d)
			traced += d
			rep.Attempted++
			acc.ops++
			if err := o.check(res, err, st.want[i]); err != nil {
				rep.fail(o.key(), err)
				continue
			}
			got.Steps += int64(res.Steps)
			got.Allocs += res.Metrics.Counter(obs.MetricAllocs)
			acc.addRuntime(r0, r1)
			acc.addResult(res)
			pres, err := acc.probeEngine(tc, o.source, o.input(), o.options())
			if err == nil && (pres.Answer != res.Answer || pres.Steps != res.Steps) {
				err = fmt.Errorf("probe rerun answered %q in %d steps", pres.Answer, pres.Steps)
			}
			if err != nil {
				rep.fail(o.key()+" (probe)", err)
			}
		}
	}
	checkWork(rep, got, passes, st.pass)
	vals := acc.perOp()
	vals["trace.overhead"] = (traced.Seconds()/float64(acc.ops))/untraced - 1
	setLayers(rep, vals)
	return writeTrace(cfg.traceFile, "perfbench", acc.spans)
}
