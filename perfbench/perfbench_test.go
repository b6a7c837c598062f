package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/obs"
	"tailspace/internal/service"
	"tailspace/internal/space"
)

var update = flag.Bool("update", false, "rewrite expected.json from the reference paths")

// closedForm is each generated program's answer as a function of n,
// computed without the engine.
var closedForm = map[string]func(n int) string{
	"sum-rec":    func(n int) string { return strconv.Itoa(n * (n + 1) / 2) },
	"sum-iter":   func(n int) string { return strconv.Itoa(n * (n + 1) / 2) },
	"set-churn":  func(n int) string { return strconv.Itoa(n * (n + 1) / 2) },
	"list-build": strconv.Itoa,
	"even-odd": func(n int) string {
		if n%2 == 0 {
			return "1"
		}
		return "0"
	},
	// The last pair written to slot 3 is (k . k) for the largest k < n
	// with k mod 8 = 3.
	"vector-churn": func(n int) string {
		k := n - 1
		for k%8 != 3 {
			k--
		}
		return fmt.Sprintf("(%d . %d)", k, k)
	},
	"thunk-return":    strconv.Itoa,
	"closure-capture": strconv.Itoa,
}

// reference runs a computation on the reference paths: the map-backed
// store and, when measured, the from-scratch space.FullMeter.
func reference(t *testing.T, source, input string, opts core.Options) core.Result {
	t.Helper()
	opts.MapStore = true
	if opts.Measure {
		opts.Meter = space.NewFullMeter(opts.CostModel)
	}
	var res core.Result
	var err error
	if input == "" {
		res, err = core.RunProgram(source, opts)
	} else {
		res, err = core.RunApplication(source, input, opts)
	}
	if err != nil || res.Err != nil {
		t.Fatalf("reference run: %v %v", err, res.Err)
	}
	return res
}

func referenceExpectation(t *testing.T, source, input, answer string, opts core.Options) expectation {
	t.Helper()
	res := reference(t, source, input, opts)
	if res.Answer != answer {
		t.Fatalf("reference run answered %q, the independent answer is %q", res.Answer, answer)
	}
	e := expectation{Answer: answer, Steps: res.Steps, Allocs: res.Metrics.Counter(obs.MetricAllocs)}
	if opts.Measure {
		e.Flat, e.Linked, e.Heap, e.ContDepth = res.PeakFlat, res.PeakLinked, res.PeakHeap, res.PeakContDepth
	}
	return e
}

// deriveExpectations recomputes expected.json from the reference paths.
func deriveExpectations(t *testing.T) *expectations {
	ex := &expectations{Ops: map[string]expectation{}, Passes: map[string]work{}}
	add := func(workload, key string, e expectation) {
		ex.Ops[key] = e
		if workload != "" {
			p := ex.Passes[workload]
			p.Steps += int64(e.Steps)
			p.Allocs += e.Allocs
			ex.Passes[workload] = p
		}
	}
	for _, o := range plainCorpusOps() {
		p, _ := corpus.ByName(o.program)
		e := referenceExpectation(t, o.source, "", p.Answer, o.options())
		// Unmeasured runs report no peaks; the timed path is checked for
		// exactly that.
		e.Heap, e.ContDepth = 0, 0
		add("plain-corpus", o.key(), e)
	}
	for workload, ops := range map[string][]batchOp{"measure-deep": measureDeepOps(), "measure-churn": measureChurnOps()} {
		for _, o := range ops {
			e := referenceExpectation(t, o.source, o.input(), closedForm[o.program](o.n), o.options())
			e.Heap, e.ContDepth = 0, 0
			add(workload, o.key(), e)
		}
	}

	baseline, err := os.ReadFile("../CLASSIFY_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []map[string]any
	if err := json.Unmarshal(baseline, &reports); err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[string]any{}
	for _, r := range reports {
		name, _ := r["program"].(string)
		byName[name] = r
	}
	for _, r := range serviceMix {
		workload := "service-mix"
		if r.hit {
			workload = ""
		}
		switch r.kind {
		case "classify":
			c, ok := byName[r.program]
			if !ok {
				t.Fatalf("CLASSIFY_baseline.json has no %s", r.program)
			}
			ex.Ops["classify/"+r.program] = expectation{Certificates: c}
		case "eval":
			v, _ := core.ByName(r.machines[0])
			p, _ := corpus.ByName(r.program)
			add(workload, r.cellKeys()[0], referenceExpectation(t, r.source(), "", p.Answer, core.Options{Variant: v}))
		default:
			for i, m := range r.machines {
				v, _ := core.ByName(m)
				opts := core.Options{Variant: v, Measure: true, GCEvery: 1, FlatOnly: r.flatOnly}
				add(workload, r.cellKeys()[i], referenceExpectation(t, r.source(), strconv.Itoa(r.n), closedForm[r.program](r.n), opts))
			}
		}
	}
	return ex
}

// TestExpectations re-derives every recorded expectation from the
// reference paths and requires expected.json to hold exactly that.
func TestExpectations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every operation on the reference store and meter")
	}
	ex := deriveExpectations(t)
	if *update {
		out, err := json.MarshalIndent(ex, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range ex.Ops {
		if g, ok := got.Ops[key]; !ok || !reflect.DeepEqual(g, want) {
			t.Errorf("%s: expected.json has %+v, the references give %+v", key, g, want)
		}
	}
	if len(got.Ops) != len(ex.Ops) {
		t.Errorf("expected.json has %d operations, the workloads schedule %d", len(got.Ops), len(ex.Ops))
	}
	if !reflect.DeepEqual(got.Passes, ex.Passes) {
		t.Errorf("expected.json pass work %+v, the references give %+v", got.Passes, ex.Passes)
	}
}

// observables are what the timing probes must leave untouched.
type observables struct {
	Answer       string
	Steps        int
	Flat, Linked int
	Rules        map[string]int64
}

func observe(res core.Result) observables {
	o := observables{Answer: res.Answer, Steps: res.Steps, Flat: res.PeakFlat, Linked: res.PeakLinked, Rules: map[string]int64{}}
	for _, r := range core.Rules() {
		if n := res.Metrics.Counter(obs.MetricRulePrefix + r.String()); n > 0 {
			o.Rules[r.String()] = n
		}
	}
	return o
}

// TestTransparency runs a sample of every batch workload's operations
// with and without the timing meter wrapper, and through the traced
// run's measured rerun, and requires identical answers, steps, rule
// counts and S/U peaks.
func TestTransparency(t *testing.T) {
	var sample []batchOp
	for _, ops := range [][]batchOp{plainCorpusOps(), measureDeepOps(), measureChurnOps()} {
		for i := 0; i < len(ops); i += 7 {
			if ops[i].n <= 32 {
				sample = append(sample, ops[i])
			}
		}
	}
	for _, o := range sample {
		plain, err := o.run(nil)
		if err != nil || plain.Err != nil {
			t.Fatalf("%s: %v %v", o.key(), err, plain.Err)
		}
		want := observe(plain)
		if o.measure {
			wrapped, err := o.run(&timedMeter{m: space.NewDeltaMeter(nil)})
			if err != nil {
				t.Fatal(err)
			}
			if got := observe(wrapped); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: with the timing meter %+v, without %+v", o.key(), got, want)
			}
		}
		probed, err := newLayerAcc().probeEngine(obs.NewTraceContext(""), o.source, o.input(), o.options())
		if err != nil {
			t.Fatal(err)
		}
		if got := observe(probed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probe rerun %+v, operation %+v", o.key(), got, want)
		}
	}
}

// TestTraceReaderTransparency sends every request of the service mix
// with and without reading its trace afterwards and requires identical
// response bodies.
func TestTraceReaderTransparency(t *testing.T) {
	st, err := newSvcSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := st.client
	for _, r := range serviceMix {
		var bodies [2][]byte
		for i, traced := range []bool{false, true} {
			// A miss gets a fresh nonce each time, so both sends compute.
			c.nonce = 500_000 + 1000*i
			res, body := c.post(r)
			if res.err != nil {
				t.Fatalf("%s %s: %v", r.kind, r.program, res.err)
			}
			if err := r.check(body, st.ex); err != nil {
				t.Fatalf("%s %s: %v", r.kind, r.program, err)
			}
			if traced {
				var tr service.TraceResponse
				if err := c.get("/v1/traces/"+res.trace, &tr); err != nil {
					t.Fatal(err)
				}
				if spanTotals(tr.Spans)["request"] == 0 {
					t.Fatalf("%s %s: trace has no request span", r.kind, r.program)
				}
			}
			bodies[i] = normalizeName(t, r, body)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s %s: body changed when its trace was read:\n%s\n%s", r.kind, r.program, bodies[0], bodies[1])
		}
	}
}

// normalizeName drops a classify miss's nonce-bearing report name.
func normalizeName(t *testing.T, r svcReq, body []byte) []byte {
	if r.kind != "classify" {
		return body
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["program"] = r.program
	out, _ := json.Marshal(m)
	return out
}
