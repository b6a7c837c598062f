package service

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEnginePanicFailsOneFlight pins the flight goroutine's panic
// containment: a computation that panics comes back as an error mapped to
// 500, is counted and logged with its cache key, is never cached (the next
// request for the key computes again), reaches every coalesced waiter, and
// leaves the server answering.
func TestEnginePanicFailsOneFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	const key = "0123abcd"
	calls := 0
	boom := func(context.Context) (any, error) {
		calls++
		panic("unpriced frame")
	}
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		_, disposition, err := s.cache.do(ctx, ctx, time.Minute, key, nil, boom)
		if !errors.Is(err, errEnginePanic) {
			t.Fatalf("do #%d: err = %v, want errEnginePanic", i, err)
		}
		if got := computeStatus(err); got != http.StatusInternalServerError {
			t.Fatalf("panic status = %d, want 500", got)
		}
		if disposition != "miss" || calls != i {
			t.Fatalf("do #%d: disposition %q after %d computes; a panicked flight must not be cached", i, disposition, calls)
		}
	}
	m := s.Metrics()
	if got := m.Counter(MetricPanics); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricPanics, got)
	}
	// The gauge is decremented after done is closed; let the flight finish.
	for deadline := time.Now().Add(5 * time.Second); m.Gauge(MetricInflight) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after panicked flights, want 0", MetricInflight, m.Gauge(MetricInflight))
		}
		time.Sleep(time.Millisecond)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after panicked flights, want 0", s.cache.Len())
	}
	if !strings.Contains(logged.String(), key) {
		t.Fatalf("panic log must name the cache key %s:\n%s", key, logged.String())
	}

	// Waiters coalesced onto a panicking flight all get the error.
	const joiners = 4
	release := make(chan struct{})
	joined := m.Counter(MetricCacheJoins)
	slow := func(context.Context) (any, error) {
		<-release
		panic("unrooted frame")
	}
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.cache.do(ctx, ctx, time.Minute, "coalesced", nil, slow); !errors.Is(err, errEnginePanic) {
				t.Errorf("coalesced waiter: err = %v, want errEnginePanic", err)
			}
		}()
	}
	for m.Counter(MetricCacheJoins) < joined+joiners-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := m.Counter(MetricPanics); got != 3 {
		t.Fatalf("%s = %d after the coalesced flight, want 3", MetricPanics, got)
	}

	var resp EvalResponse
	req := EvalRequest{Program: countdown, Input: "(quote 5)"}
	if status := post(t, ts.URL+"/v1/eval", req, &resp); status != http.StatusOK || resp.Outcome != "answer" {
		t.Fatalf("server must keep answering after an engine panic: status %d, %+v", status, resp)
	}
}
