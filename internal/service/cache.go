package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"tailspace/internal/obs"
)

// Metric names the service publishes beside the engine's own (the per-run
// registries are merged in, so /metrics also reports machine.steps totals,
// GC work, and worst-cell peaks across everything the server has run).
const (
	MetricCacheHits   = "cache.hits"     // served straight from the LRU
	MetricCacheMisses = "cache.misses"   // computed fresh
	MetricCacheJoins  = "cache.joins"    // coalesced onto an in-flight computation
	MetricCacheSize   = "cache.size"     // gauge: entries resident
	MetricInflight    = "cache.inflight" // gauge: distinct computations running
	MetricPoolBusy    = "pool.busy"      // gauge: worker slots in use
	MetricPoolWaiting = "pool.waiting"   // gauge: computations queued for a slot
	MetricPanics      = "engine.panics"  // computations that panicked (answered 500, not cached)
	// MetricRequests counts served requests per route pattern, labeled with
	// obs.Labeled(MetricRequests, "endpoint", route). The route must enter as
	// a label, never concatenated into the name: patterns like
	// /v1/runs/{id}/events contain braces, which the Prometheus writer would
	// misparse as a label block.
	MetricRequests = "http.requests"
	MetricStatus   = "http.status." // counter prefix, by status class (2xx...)

	// Histograms (fixed log buckets; see obs.Histogram). Labeled names are
	// built with obs.Labeled, so the Prometheus exposition renders them as
	// real label sets and the JSON snapshot carries count/sum/p50/p90/p99
	// per series.
	MetricReqLatencyUS = "http.request.us"     // per request, labeled endpoint
	MetricQueueWaitUS  = "pool.wait.us"        // time from arrival to worker slot
	MetricRunSteps     = "run.steps"           // per engine run, labeled machine+model
	MetricRunPeakFlat  = "run.peak.flat.words" // S_X sample per measured run, labeled machine+model
	MetricStreamSubs   = "stream.subscribers"  // gauge: attached live-event streams
)

// resultCache is the content-addressed result cache with single-flight
// coalescing. Keys are hashes of (endpoint kind, expanded program, input,
// machine, mode, options); values are finished response cells, which are
// immutable once stored.
//
// Concurrent requests for the same key share one computation: the first
// becomes the leader and starts the work, later arrivals join as waiters.
// The computation's lifetime is tied to its waiters, not to the leader's
// connection — each waiter that disconnects decrements a reference count,
// and only when the count reaches zero is the underlying run cancelled. A
// computation that fails (cancellation, deadline, engine panic) is not
// cached, so the next request retries it.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	flights map[string]*flight
	metrics *obs.SyncMetrics
}

// errEnginePanic marks a computation that panicked. Engine invariants panic
// by design (an unpriced or unrooted frame); the flight recovers, so one
// such program fails its own request with a 500 instead of the process.
var errEnginePanic = errors.New("service: engine panic")

// centry is one resident cache entry.
type centry struct {
	key string
	val any
}

// flight is one in-progress computation and its waiters.
type flight struct {
	done    chan struct{} // closed when val/err are final
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc
}

func newResultCache(max int, metrics *obs.SyncMetrics) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		ll:      list.New(),
		byKey:   map[string]*list.Element{},
		flights: map[string]*flight{},
		metrics: metrics,
	}
}

// do returns the cached value for key, joins an in-flight computation for
// it, or runs compute to produce it. disposition reports which of the three
// happened ("hit", "join", "miss").
//
// onLookup, when non-nil, is invoked exactly once, as soon as the
// disposition is decided and the cache lock released — before any waiting
// on the computation. The service uses it to close the cache-lookup span of
// a traced request so the span measures the lookup alone, not the run.
//
// ctx is this caller's own lifetime — request context plus per-request
// deadline. compute receives a context the *flight* owns, derived from base
// (the server's lifetime) bounded by timeout: it ends when every waiter is
// gone, when the server closes, or at the deadline — but not when any
// individual requester (the leader included) disconnects, so coalesced
// followers keep a computation alive.
func (c *resultCache) do(ctx, base context.Context, timeout time.Duration, key string, onLookup func(disposition string), compute func(context.Context) (any, error)) (val any, disposition string, err error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*centry).val
		c.mu.Unlock()
		c.metrics.Inc(MetricCacheHits, 1)
		if onLookup != nil {
			onLookup("hit")
		}
		return val, "hit", nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.mu.Unlock()
		c.metrics.Inc(MetricCacheJoins, 1)
		if onLookup != nil {
			onLookup("join")
		}
		return c.wait(ctx, key, f, "join")
	}

	// Leader: start the computation on a context owned by the flight.
	fctx, cancel := context.WithTimeout(base, timeout)
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics.Inc(MetricCacheMisses, 1)
	c.metrics.Add(MetricInflight, 1)
	if onLookup != nil {
		onLookup("miss")
	}

	go func() {
		v, cerr := c.run(fctx, key, compute)
		c.mu.Lock()
		f.val, f.err = v, cerr
		delete(c.flights, key)
		if cerr == nil {
			c.insertLocked(key, v)
		}
		c.mu.Unlock()
		close(f.done)
		cancel()
		c.metrics.Add(MetricInflight, -1)
	}()
	return c.wait(ctx, key, f, "miss")
}

// run calls compute on the flight's goroutine, turning a panic into an
// errEnginePanic error: the flight then finishes like any failed one (not
// cached, waiters released, inflight gauge decremented). The key — the hash
// of the expanded program and run options — is logged with the stack so
// the failing run can be replayed.
func (c *resultCache) run(ctx context.Context, key string, compute func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.metrics.Inc(MetricPanics, 1)
			log.Printf("service: engine panic computing cache key %s: %v\n%s", key, p, debug.Stack())
			v, err = nil, fmt.Errorf("%w: %v (cache key %s)", errEnginePanic, p, key)
		}
	}()
	return compute(ctx)
}

// wait blocks until the flight finishes or this waiter's context ends. A
// departing waiter that was the last one cancels the computation.
func (c *resultCache) wait(ctx context.Context, key string, f *flight, disposition string) (any, string, error) {
	select {
	case <-f.done:
		return f.val, disposition, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, disposition, ctx.Err()
	}
}

// insertLocked adds a finished value and evicts beyond the bound. Caller
// holds c.mu.
func (c *resultCache) insertLocked(key string, val any) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*centry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&centry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*centry).key)
	}
	c.metrics.Set(MetricCacheSize, int64(c.ll.Len()))
}

// Len reports the resident entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
