package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/corpus"
	"tailspace/internal/obs"
	"tailspace/internal/service"
)

// svcReq is one request template of the service-mix schedule. A hit
// repeats a request the set-up already sent, so the result cache answers
// it; a miss is first-seen. Misses stay distinct without changing the work
// behind them: a classify miss carries a fresh report name, an eval or
// measure miss a fresh step bound far above the steps the program needs.
// Both enter the cache key and neither changes the computation.
type svcReq struct {
	kind     string // classify, eval or measure
	program  string // corpus program (classify, eval) or parametric program (measure)
	machines []string
	n        int  // measure input
	flatOnly bool // measure without the Figure 8 linked meter
	hit      bool
}

// The pass of service-mix: 36 requests, 24 hits and 12 misses.
// Hits are cheap (parse, expand, hash, cache lookup, encode), so the HTTP,
// cache and front-end layers do most of the server's work; the misses
// exercise the pool, the engine and the flow analysis behind /v1/classify.
// Each percentile should fall among requests of about the same latency
// rather than on a step between two kinds, where it would jump between
// their latencies from run to run. The six slowest requests of a pass are
// the same classify miss, next to the measure miss of about the same
// latency, so p90 (3.6 requests from the top) lies among seven. The four
// small programs' classify hits come twice, so p50 (the 18th request) lies
// two requests below the step of 30–45% up to the classify hits of the
// four large programs, not on it.
var serviceMix = []svcReq{
	{kind: "classify", program: "metacircular", hit: true},
	{kind: "classify", program: "regex-derivatives", hit: true},
	{kind: "classify", program: "deriv", hit: true},
	{kind: "classify", program: "list-library", hit: true},
	{kind: "classify", program: "quicksort", hit: true},
	{kind: "classify", program: "church", hit: true},
	{kind: "classify", program: "state-machine", hit: true},
	{kind: "classify", program: "graph-reach", hit: true},
	{kind: "classify", program: "quicksort", hit: true},
	{kind: "classify", program: "church", hit: true},
	{kind: "classify", program: "state-machine", hit: true},
	{kind: "classify", program: "graph-reach", hit: true},
	{kind: "classify", program: "metacircular"},
	{kind: "classify", program: "metacircular"},
	{kind: "classify", program: "metacircular"},
	{kind: "classify", program: "metacircular"},
	{kind: "classify", program: "metacircular"},
	{kind: "classify", program: "metacircular"},

	{kind: "eval", program: "fact", machines: []string{"tail"}, hit: true},
	{kind: "eval", program: "church", machines: []string{"gc"}, hit: true},
	{kind: "eval", program: "state-machine", machines: []string{"sfs"}, hit: true},
	{kind: "eval", program: "vector-sum", machines: []string{"evlis"}, hit: true},
	{kind: "eval", program: "assoc-env", machines: []string{"stack"}, hit: true},
	{kind: "eval", program: "tree-fold", machines: []string{"free"}, hit: true},
	{kind: "eval", program: "church-pred", machines: []string{"naive"}, hit: true},
	{kind: "eval", program: "graph-reach", machines: []string{"spaceff"}, hit: true},
	{kind: "eval", program: "fact", machines: []string{"tail"}},
	{kind: "eval", program: "assoc-env", machines: []string{"gc"}},
	{kind: "eval", program: "char-caesar", machines: []string{"sfs"}},
	{kind: "eval", program: "stream-fibs", machines: []string{"free"}},

	{kind: "measure", program: "sum-iter", n: 10, machines: []string{"tail", "gc"}, hit: true},
	{kind: "measure", program: "even-odd", n: 10, machines: []string{"tail", "sfs"}, hit: true},
	{kind: "measure", program: "sum-rec", n: 10, machines: []string{"stack", "evlis"}, hit: true},
	{kind: "measure", program: "sum-iter", n: 12, machines: []string{"naive", "spaceff"}, flatOnly: true, hit: true},
	// A both-meter measure of even a tiny program walks the whole global
	// environment per transition (Figure 8) and would be the slowest
	// request by far, so the measure misses are flat-only.
	{kind: "measure", program: "sum-iter", n: 6, machines: []string{"tail"}, flatOnly: true},
	{kind: "measure", program: "even-odd", n: 6, machines: []string{"sfs"}, flatOnly: true},
}

// hitMaxSteps is the step bound of hits (the server default); a miss's
// bound is missBase plus its nonce, which stays below the server's
// 5,000,000 cap.
const (
	hitMaxSteps = 0
	missBase    = 1_000_000
)

func (r svcReq) source() string {
	if r.kind == "measure" {
		for _, p := range corpus.ParametricPrograms() {
			if p.Name == r.program {
				return p.Source
			}
		}
		return ""
	}
	p, _ := corpus.ByName(r.program)
	return p.Source
}

// cellKeys are the expectation keys of the engine runs behind a request.
func (r svcReq) cellKeys() []string {
	var keys []string
	for _, m := range r.machines {
		if r.kind == "eval" {
			keys = append(keys, "eval/"+r.program+"/"+m)
		} else {
			key := fmt.Sprintf("measure/%s/%d/%s", r.program, r.n, m)
			if r.flatOnly {
				key += "/flat"
			}
			keys = append(keys, key)
		}
	}
	return keys
}

// body renders the request; nonce makes a miss first-seen.
func (r svcReq) body(nonce int) any {
	maxSteps := hitMaxSteps
	if !r.hit {
		maxSteps = missBase + nonce
	}
	switch r.kind {
	case "classify":
		name := r.program
		if !r.hit {
			name += "#" + strconv.Itoa(nonce)
		}
		return service.ClassifyRequest{Name: name, Program: r.source()}
	case "eval":
		return service.EvalRequest{Program: r.source(), Machine: r.machines[0], MaxSteps: maxSteps}
	default:
		return service.MeasureRequest{Program: r.source(), Input: strconv.Itoa(r.n), Machines: r.machines, FlatOnly: r.flatOnly, MaxSteps: maxSteps}
	}
}

// check compares a 2xx response body with the recorded expectations.
func (r svcReq) check(body []byte, ex *expectations) error {
	switch r.kind {
	case "classify":
		want, err := ex.op("classify/" + r.program)
		if err != nil {
			return err
		}
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		got["program"] = want.Certificates["program"]
		if !reflect.DeepEqual(got, want.Certificates) {
			return fmt.Errorf("certificates differ from CLASSIFY_baseline.json")
		}
	case "eval":
		var got service.EvalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := ex.op(r.cellKeys()[0])
		if err != nil {
			return err
		}
		exp := service.EvalResponse{Machine: r.machines[0], Outcome: "answer", Answer: want.Answer, Steps: want.Steps}
		if got != exp {
			return fmt.Errorf("got %+v, want %+v", got, exp)
		}
	default:
		var got service.MeasureResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Cells) != len(r.machines) {
			return fmt.Errorf("got %d cells, want %d", len(got.Cells), len(r.machines))
		}
		for i, key := range r.cellKeys() {
			want, err := ex.op(key)
			if err != nil {
				return err
			}
			exp := service.MeasureCell{
				Machine: r.machines[i], CostModel: "word", Outcome: "answer",
				Flat: want.Flat, Linked: want.Linked, Heap: want.Heap, ContDepth: want.ContDepth,
				Steps: want.Steps, Answer: want.Answer,
			}
			if got.Cells[i] != exp {
				return fmt.Errorf("cell %d: got %+v, want %+v", i, got.Cells[i], exp)
			}
		}
	}
	return nil
}

// missWork is the engine work one pass's misses make the server do.
func missWork(ex *expectations) (work, error) {
	var w work
	for _, r := range serviceMix {
		if r.hit || r.kind == "classify" {
			continue
		}
		for _, key := range r.cellKeys() {
			e, err := ex.op(key)
			if err != nil {
				return w, err
			}
			w.Steps += int64(e.Steps)
			w.Allocs += e.Allocs
		}
	}
	return w, nil
}

// svcClient is the closed-loop client of service-mix, with one connection.
// With two clients (one per CPU of the 2-vCPU machine the benchmark was
// tuned on) the median pass settled on one of two levels about 15% apart
// from process to process, and p50 and p90 spread by over 20%. One client
// and one P (GOMAXPROCS=1) hand every request between the client's and the
// server's goroutines on one thread, which repeats.
type svcClient struct {
	http     *http.Client
	base     string
	schedule []svcReq
	nonce    int
	// verified holds, per request template, the response bodies that
	// passed a full check. A repeat of one is checked by comparing bytes,
	// which keeps the client's own JSON decoding from competing with the
	// server for the CPUs. Classify misses, whose bodies carry their unique
	// report name, are always decoded and so never stored.
	verified map[string]bool
}

// svcResult is one finished request.
type svcResult struct {
	lat   time.Duration
	trace string // X-Trace-Id
	err   error
}

// post sends r, drawing a fresh nonce for a miss, and returns the result
// with the response body; a non-2xx status is an error.
func (c *svcClient) post(r svcReq) (svcResult, []byte) {
	nonce := 0
	if !r.hit {
		c.nonce++
		nonce = c.nonce
	}
	payload, err := json.Marshal(r.body(nonce))
	if err != nil {
		return svcResult{err: err}, nil
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/"+r.kind, "application/json", bytes.NewReader(payload))
	if err != nil {
		return svcResult{err: err}, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := svcResult{lat: time.Since(t0), trace: resp.Header.Get("X-Trace-Id"), err: err}
	if err == nil && resp.StatusCode/100 != 2 {
		res.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return res, body
}

// send posts r and checks the response against the expectations.
func (c *svcClient) send(r svcReq, ex *expectations) svcResult {
	res, body := c.post(r)
	key := fmt.Sprintf("%s/%s/%v\x00%s", r.kind, r.program, r.cellKeys(), body)
	if res.err == nil && !c.verified[key] {
		res.err = r.check(body, ex)
		if res.err == nil && (r.hit || r.kind != "classify") {
			c.verified[key] = true
		}
	}
	if res.err != nil {
		res.err = fmt.Errorf("%s %s: %w", r.kind, r.program, res.err)
	}
	return res
}

func (c *svcClient) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// svcSetup is one running server with its warmed cache and its client.
type svcSetup struct {
	ex     *expectations
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *svcClient
	pass   work // engine work of one pass
}

// newSvcSetup starts spaced on a loopback port with the default Config,
// waits until /healthz answers, sends every hit of the mix once so the
// cache holds it, and runs one warm-up pass.
func newSvcSetup(seed int64) (*svcSetup, error) {
	ex, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	pass, err := missWork(ex)
	if err != nil {
		return nil, err
	}
	if want := ex.Passes["service-mix"]; want != pass {
		return nil, fmt.Errorf("recorded pass work %+v, but the mix's misses sum to %+v", want, pass)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcSetup{ex: ex, srv: service.New(service.Config{}), served: make(chan error, 1), pass: pass}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	c := &svcClient{
		base:     "http://" + ln.Addr().String(),
		http:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		schedule: append([]svcReq(nil), serviceMix...),
		verified: map[string]bool{},
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(c.schedule), func(a, b int) { c.schedule[a], c.schedule[b] = c.schedule[b], c.schedule[a] })
	s.client = c
	var health service.HealthResponse
	if err := c.get("/healthz", &health); err != nil {
		s.close()
		return nil, err
	}
	for _, r := range serviceMix {
		if r.hit {
			if res := c.send(r, ex); res.err != nil {
				s.close()
				return nil, fmt.Errorf("warming the cache: %w", res.err)
			}
		}
	}
	for _, r := range c.schedule {
		if res := c.send(r, ex); res.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up pass: %w", res.err)
		}
	}
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *svcSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	s.srv.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	s.client.http.CloseIdleConnections()
}

// counters reads the server's /metrics counters.
func (s *svcSetup) counters() (map[string]int64, error) {
	var m map[string]int64
	err := s.client.get("/metrics", &m)
	return m, err
}

// svcWindow is one measurement window of the service.
type svcWindow struct {
	lat      []float64
	passes   []float64 // pass durations, seconds
	alloc    uint64
	requests int
	// Traced windows only: span seconds by span name, summed over
	// requests, and the spans themselves.
	spanSecs map[string]float64
	spans    []obs.Event
	rt       [2]runtimeSample
}

// measureService runs the client as a closed loop of whole passes until
// budget has elapsed. When traced, every request's spans are fetched from
// GET /v1/traces/{id} right after its response, on the same connection.
func (s *svcSetup) measureService(budget time.Duration, traced bool, rep *report) svcWindow {
	w := svcWindow{spanSecs: map[string]float64{}}
	c := s.client
	w.rt[0] = readRuntime()
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < budget; passes++ {
		p0 := time.Now()
		for _, r := range c.schedule {
			res := c.send(r, s.ex)
			var tr service.TraceResponse
			var spans map[string]float64
			if traced && res.err == nil {
				res.err = c.get("/v1/traces/"+res.trace, &tr)
				spans = spanTotals(tr.Spans)
				if res.err == nil && spans["request"] == 0 {
					res.err = fmt.Errorf("trace %s has no request span", res.trace)
				}
			}
			rep.Attempted++
			w.requests++
			w.lat = append(w.lat, res.lat.Seconds())
			if res.err != nil {
				rep.fail("request", res.err)
			}
			for name, v := range spans {
				w.spanSecs[name] += v
			}
			if traced {
				w.spanSecs["http"] += res.lat.Seconds() - spans["request"]
				w.spans = append(w.spans, tr.Spans...)
			}
		}
		w.passes = append(w.passes, time.Since(p0).Seconds())
	}
	w.rt[1] = readRuntime()
	w.alloc = w.rt[1].allocBytes - w.rt[0].allocBytes
	return w
}

// spanTotals sums a trace's span durations by span name, in seconds.
func spanTotals(spans []obs.Event) map[string]float64 {
	out := map[string]float64{}
	for _, e := range spans {
		if e.Type == obs.EventSpan {
			out[e.Span] += float64(e.DurUS) / 1e6
		}
	}
	return out
}

// checkServiceWork compares the engine work the server reports between two
// /metrics readings with passes × the recorded work of a pass.
func (s *svcSetup) checkServiceWork(rep *report, before, after map[string]int64, passes int) {
	got := work{
		Steps:  after[obs.MetricSteps] - before[obs.MetricSteps],
		Allocs: after[obs.MetricAllocs] - before[obs.MetricAllocs],
	}
	checkWork(rep, got, passes, s.pass)
	if joins := after[service.MetricCacheJoins] - before[service.MetricCacheJoins]; joins != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d requests coalesced; every miss must compute\n", joins)
		rep.Correct = false
	}
}

// segmentPasses is the number of consecutive passes over which service-mix
// takes each p50 and p90 before the median over segments; a 20-second run
// holds about forty segments.
const segmentPasses = 64

func runServiceMix(cfg config) (*report, error) {
	runtime.GOMAXPROCS(1)
	st, setup, err := timedSetup(func() (*svcSetup, error) { return newSvcSetup(cfg.seed) }, (*svcSetup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := &report{Correct: true}
	before, err := st.counters()
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		w := st.measureService(cfg.seconds, false, rep)
		after, err := st.counters()
		if err != nil {
			return nil, err
		}
		st.checkServiceWork(rep, before, after, len(w.passes))
		return rep, endToEnd(rep, setup, w.lat, segmentPasses*len(serviceMix), w.passes, len(serviceMix), w.alloc)
	}
	return rep, st.traceService(rep, before, cfg)
}

// replayPasses is how many times the traced run replays the mix from
// outside the server; one pass holds only six classify misses, too few to
// time steadily.
const replayPasses = 50

// traceService is the traced run of service-mix: an untraced window (the
// baseline of trace.overhead), a traced window that reads every request's
// spans and the /metrics counters around it, and a replay of the mix from
// outside the server: the front end (read, expand) of every
// request, analysis.Classify for the classify misses, and a layer-by-layer
// probe (probeEngine) of every engine run behind the eval and measure
// misses. Replayed figures are per request of the replayed passes, which
// hold the same requests as every pass.
func (s *svcSetup) traceService(rep *report, before map[string]int64, cfg config) error {
	base := s.measureService(cfg.seconds/2, false, rep)
	mid, err := s.counters()
	if err != nil {
		return err
	}
	s.checkServiceWork(rep, before, mid, len(base.passes))
	w := s.measureService(cfg.seconds/2, true, rep)
	after, err := s.counters()
	if err != nil {
		return err
	}
	s.checkServiceWork(rep, mid, after, len(w.passes))

	acc := newLayerAcc()
	for i := 0; i < replayPasses; i++ {
		for _, r := range serviceMix {
			tc := obs.NewTraceContext("")
			acc.ops++
			if err := acc.probeRequest(tc, r, s.ex); err != nil {
				rep.fail("replay "+r.kind+" "+r.program, err)
			}
		}
	}
	vals := acc.perOp()
	n := float64(w.requests)
	for name, v := range w.spanSecs {
		vals["service."+strings.ReplaceAll(name, "-", "_")+"_s"] = v / n
	}
	delta := func(name string) float64 { return float64(after[name] - mid[name]) }
	hits, misses, joins := delta(service.MetricCacheHits), delta(service.MetricCacheMisses), delta(service.MetricCacheJoins)
	vals["service.cache_hits"] = hits / n
	vals["service.cache_misses"] = misses / n
	vals["service.cache_joins"] = joins / n
	vals["service.cache_hit_ratio"] = hits / (hits + misses + joins)
	vals["service.non2xx"] = (delta(service.MetricStatus+"3xx") + delta(service.MetricStatus+"4xx") + delta(service.MetricStatus+"5xx")) / n
	vals["go.gc_cycles"] = float64(w.rt[1].gcCycles-w.rt[0].gcCycles) / n
	vals["go.gc_cpu_s"] = (w.rt[1].gcCPU - w.rt[0].gcCPU) / n
	vals["trace.overhead"] = (sum(w.lat)/n)/(sum(base.lat)/float64(len(base.lat))) - 1
	setLayers(rep, vals)
	return writeTrace(cfg.traceFile, "spaced (perfbench service-mix)", append(w.spans, acc.spans...))
}

// probeRequest replays one request of the mix from outside the server.
func (a *layerAcc) probeRequest(tc *obs.TraceContext, r svcReq, ex *expectations) error {
	src := r.source()
	// The server reads and expands every request before its cache lookup.
	e, err := a.readExpand(tc, src)
	if err != nil {
		return err
	}
	if r.hit {
		return nil
	}
	if r.kind == "classify" {
		a.add("analysis.classify_s", a.timed(tc, "analysis.classify", func() { analysis.Classify(r.program, e, "word") }).Seconds())
		return nil
	}
	for i, m := range r.machines {
		v, ok := core.ByName(m)
		if !ok {
			return fmt.Errorf("unknown machine %s", m)
		}
		opts := core.Options{Variant: v}
		input := ""
		if r.kind == "measure" {
			opts.Measure, opts.GCEvery, opts.FlatOnly = true, 1, r.flatOnly
			input = strconv.Itoa(r.n)
		}
		res, err := a.probeEngine(tc, src, input, opts)
		if err != nil {
			return err
		}
		want, err := ex.op(r.cellKeys()[i])
		if err != nil {
			return err
		}
		if res.Answer != want.Answer || res.Steps != want.Steps {
			return fmt.Errorf("replay answered %q in %d steps, want %q in %d", res.Answer, res.Steps, want.Answer, want.Steps)
		}
		a.addResult(res)
	}
	return nil
}
