package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json records, for every operation any workload can schedule,
// the output the program must produce. perfbench_test.go re-derives every
// entry from reference paths that are never timed here: the corpus's
// hand-written answers (or closed forms for the generated programs),
// steps, allocations and S/U peaks from the map-backed store measured by
// space.NewFullMeter, and CLASSIFY_baseline.json for certificates.
// Regenerate with `go test -run TestExpectations -update` in this directory.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is the recorded outcome of one operation.
type expectation struct {
	Answer string `json:"answer,omitempty"`
	Steps  int    `json:"steps,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`
	// Flat and Linked are the S_X and U_X samples (|P| included) of
	// measured runs; Linked is 0 for flat-only runs.
	Flat   int `json:"flat,omitempty"`
	Linked int `json:"linked,omitempty"`
	// Heap and ContDepth are the peak live locations and continuation
	// depth, which /v1/measure cells report.
	Heap      int `json:"heap,omitempty"`
	ContDepth int `json:"contDepth,omitempty"`
	// Certificates is the CLASSIFY_baseline.json entry of a classified
	// program.
	Certificates map[string]any `json:"certificates,omitempty"`
}

// outcome is the comparable part of a batch operation's expectation.
type outcome struct {
	Answer       string
	Steps        int
	Allocs       int64
	Flat, Linked int
}

func (e expectation) outcome() outcome {
	return outcome{Answer: e.Answer, Steps: e.Steps, Allocs: e.Allocs, Flat: e.Flat, Linked: e.Linked}
}

// work is the engine work of one pass over a workload's schedule.
type work struct {
	Steps  int64 `json:"steps"`
	Allocs int64 `json:"allocs"`
}

type expectations struct {
	// Ops maps an operation key (see batchOp.key and the service request
	// keys) to its expected outcome.
	Ops map[string]expectation `json:"ops"`
	// Passes is the total engine work of one pass of each workload. A
	// seed only permutes a workload's fixed multiset of operations, so the
	// total is the same for every seed; a run whose total differs from
	// passes × this value did different work and is a failed run.
	Passes map[string]work `json:"passes"`
}

func loadExpectations() (*expectations, error) {
	var ex expectations
	if err := json.Unmarshal(expectedJSON, &ex); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &ex, nil
}

func (ex *expectations) op(key string) (expectation, error) {
	e, ok := ex.Ops[key]
	if !ok {
		return e, fmt.Errorf("expected.json has no entry for %s", key)
	}
	return e, nil
}
