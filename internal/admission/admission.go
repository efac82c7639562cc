// Package admission is the server's traffic-hardening layer: it
// decides, in O(1) and before any request work happens, whether a
// request may proceed. Three independent mechanisms compose into one
// controller, applied in the order identify → quota → admit:
//
//   - per-client token-bucket rate limiting (Allow): each client key —
//     an API key or remote address — draws from its own bucket. A
//     drained bucket means "throttled": the caller should answer 429
//     with a Retry-After derived from the bucket's refill rate.
//
//   - concurrency-gated admission (Acquire): at most MaxInFlight
//     requests run concurrently; up to QueueDepth more may wait, each
//     for at most QueueWait. A full queue or an expired wait means
//     "shed": the caller should answer 503 immediately. Both outcomes
//     cost O(1) — no body is read, no snapshot pinned, no evaluator
//     built — which is the property that keeps an overloaded server
//     responsive instead of collapsing under its own backlog.
//
//   - per-request cost ceilings (MaxCost/RejectCost): the caller
//     estimates a request's evaluation cost from its pattern set
//     (matrix products; see eval.EstimateProducts) and rejects requests
//     whose estimate exceeds the ceiling with 422 before any
//     materialization starts. The controller only keeps the ceiling and
//     the rejection counter; the estimate itself needs the decoded
//     body, so it runs in the handler, after the two O(1) checks above.
//
// Every mechanism is individually optional (a zero/negative setting
// disables it); Config.Enabled reports whether any is live. The
// controller is safe for concurrent use.
package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultQueueWait bounds how long an admitted-capacity waiter may sit
// in the queue before it is shed, when Config.QueueWait is zero. It is
// deliberately short: a request that cannot start promptly is better
// rejected (the client retries against a less loaded replica) than
// served a 504 after burning a worker.
const DefaultQueueWait = 2 * time.Second

// DefaultMaxClients bounds how many distinct client keys the rate
// limiter tracks, when Config.MaxClients is zero. Keys come off the
// wire (API keys, remote addresses), so an unbounded map is a memory
// leak under adversarial traffic; least-recently-seen buckets are
// evicted past the bound.
const DefaultMaxClients = 4096

// Config configures a Controller. The zero value disables every
// mechanism (Enabled returns false; New returns nil).
type Config struct {
	// MaxInFlight caps concurrently admitted requests; <= 0 disables
	// the concurrency gate (Acquire always admits).
	MaxInFlight int
	// QueueDepth bounds how many requests may wait for capacity; 0
	// sheds immediately at capacity. Ignored without MaxInFlight.
	QueueDepth int
	// QueueWait bounds how long one queued request waits before it is
	// shed; 0 means DefaultQueueWait. Ignored without MaxInFlight.
	QueueWait time.Duration
	// Rate/Burst is the per-client token bucket; Rate <= 0 disables
	// rate limiting.
	Rate  float64
	Burst int
	// MaxClients bounds the tracked client keys; 0 means
	// DefaultMaxClients.
	MaxClients int
	// MaxCost is the per-request cost ceiling in estimated matrix
	// products; <= 0 disables cost rejection.
	MaxCost int
}

// Enabled reports whether the config turns on any admission mechanism.
func (c Config) Enabled() bool {
	return c.MaxInFlight > 0 || c.Rate > 0 || c.MaxCost > 0
}

// Stats is a point-in-time controller summary (the /stats admission
// section).
type Stats struct {
	Enabled     bool    `json:"enabled"`
	MaxInFlight int     `json:"max_inflight"`
	QueueDepth  int     `json:"queue_depth"`
	Rate        float64 `json:"rate"`
	Burst       int     `json:"burst"`
	MaxCost     int     `json:"max_cost"`

	InFlight       int `json:"in_flight"`
	Queued         int `json:"queued"`
	TrackedClients int `json:"tracked_clients"`

	Admitted     uint64 `json:"admitted"`
	Shed         uint64 `json:"shed"`
	Throttled    uint64 `json:"throttled"`
	CostRejected uint64 `json:"cost_rejected"`
}

// bucket is one client's token bucket. touched is the limiter's LRU
// tick at the last use.
type bucket struct {
	tokens  float64
	last    time.Time
	touched uint64
}

// Controller applies the configured admission mechanisms. Build with
// New; a nil *Controller is valid and admits everything (every method
// is nil-safe), so callers thread it unconditionally.
type Controller struct {
	cfg       Config
	queueWait time.Duration

	// sem holds one token per admitted request (nil without a
	// concurrency gate); queue holds one token per waiter.
	sem   chan struct{}
	queue chan struct{}

	// now is the limiter's clock, swappable in tests.
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	tick    uint64

	admitted, shed, throttled, costRejected atomic.Uint64
}

// New builds a controller for cfg, or nil when cfg enables nothing.
func New(cfg Config) *Controller {
	if !cfg.Enabled() {
		return nil
	}
	c := &Controller{cfg: cfg, queueWait: cfg.QueueWait, now: time.Now}
	if c.queueWait <= 0 {
		c.queueWait = DefaultQueueWait
	}
	if c.cfg.MaxClients <= 0 {
		c.cfg.MaxClients = DefaultMaxClients
	}
	if cfg.MaxInFlight > 0 {
		c.sem = make(chan struct{}, cfg.MaxInFlight)
		if cfg.QueueDepth > 0 {
			c.queue = make(chan struct{}, cfg.QueueDepth)
		}
	}
	if cfg.Rate > 0 {
		c.buckets = make(map[string]*bucket)
	}
	return c
}

// Config returns the controller's configuration (zero for nil).
func (c *Controller) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Allow draws one token from key's bucket. ok=false means the client is
// throttled; retryAfter is how long until the bucket next holds a full
// token (the 429 Retry-After hint). A nil controller and a disabled
// limiter admit at no cost.
func (c *Controller) Allow(key string) (ok bool, retryAfter time.Duration) {
	if c == nil || c.buckets == nil {
		return true, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rate, burst := c.cfg.Rate, float64(c.cfg.Burst)
	if burst < 1 {
		burst = 1
	}
	now := c.now()
	b := c.buckets[key]
	if b == nil {
		c.evictLocked()
		b = &bucket{tokens: burst, last: now}
		c.buckets[key] = b
	}
	c.tick++
	b.touched = c.tick
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	c.throttled.Add(1)
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// evictLocked makes room for one more bucket: past the key bound the
// least-recently-used bucket is dropped (a returning client simply
// starts a fresh, full bucket — eviction can only ever be generous).
func (c *Controller) evictLocked() {
	for len(c.buckets) >= c.cfg.MaxClients {
		victim, oldest, first := "", uint64(0), true
		for k, b := range c.buckets {
			if first || b.touched < oldest {
				victim, oldest, first = k, b.touched, false
			}
		}
		delete(c.buckets, victim)
	}
}

// Acquire claims one concurrency slot, waiting in the bounded queue if
// capacity is full. On admission it returns a release func (call
// exactly once, typically deferred) and the time spent queued. ok=false
// means the request was shed — the queue was full, the wait expired, or
// ctx was done first — with nothing to release. A nil controller or a
// controller without a concurrency gate admits immediately.
func (c *Controller) Acquire(ctx context.Context) (release func(), ok bool, waited time.Duration) {
	if c == nil {
		return func() {}, true, 0
	}
	if c.sem == nil {
		c.admitted.Add(1)
		return func() {}, true, 0
	}
	select {
	case c.sem <- struct{}{}:
		c.admitted.Add(1)
		return c.release, true, 0
	default:
	}
	// Capacity is full. Take a queue slot without blocking — a full
	// queue is the immediate-shed signal that keeps rejection O(1).
	if c.queue == nil {
		c.shed.Add(1)
		return nil, false, 0
	}
	select {
	case c.queue <- struct{}{}:
	default:
		c.shed.Add(1)
		return nil, false, 0
	}
	start := time.Now()
	timer := time.NewTimer(c.queueWait)
	defer timer.Stop()
	select {
	case c.sem <- struct{}{}:
		<-c.queue
		c.admitted.Add(1)
		return c.release, true, time.Since(start)
	case <-timer.C:
		<-c.queue
		c.shed.Add(1)
		return nil, false, time.Since(start)
	case <-ctx.Done():
		// The client gave up while queued; counting it as shed keeps
		// admitted + shed + throttled covering every gated request.
		<-c.queue
		c.shed.Add(1)
		return nil, false, time.Since(start)
	}
}

func (c *Controller) release() { <-c.sem }

// MaxCost returns the per-request cost ceiling (0 = no ceiling).
func (c *Controller) MaxCost() int {
	if c == nil {
		return 0
	}
	return c.cfg.MaxCost
}

// RejectCost records one request rejected for exceeding the cost
// ceiling.
func (c *Controller) RejectCost() {
	if c != nil {
		c.costRejected.Add(1)
	}
}

// InFlight returns the currently admitted request count.
func (c *Controller) InFlight() int {
	if c == nil || c.sem == nil {
		return 0
	}
	return len(c.sem)
}

// Queued returns the currently waiting request count.
func (c *Controller) Queued() int {
	if c == nil || c.queue == nil {
		return 0
	}
	return len(c.queue)
}

// TrackedClients returns how many client keys hold a live bucket.
func (c *Controller) TrackedClients() int {
	if c == nil || c.buckets == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}

// Admitted returns the cumulative admitted count.
func (c *Controller) Admitted() uint64 {
	if c == nil {
		return 0
	}
	return c.admitted.Load()
}

// Shed returns the cumulative shed count (full queue, expired wait, or
// context done while queued).
func (c *Controller) Shed() uint64 {
	if c == nil {
		return 0
	}
	return c.shed.Load()
}

// Throttled returns the cumulative rate-limited count.
func (c *Controller) Throttled() uint64 {
	if c == nil {
		return 0
	}
	return c.throttled.Load()
}

// CostRejected returns the cumulative cost-ceiling rejection count.
func (c *Controller) CostRejected() uint64 {
	if c == nil {
		return 0
	}
	return c.costRejected.Load()
}

// Stats assembles the point-in-time summary. Valid on nil (everything
// zero, Enabled false).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Enabled:        true,
		MaxInFlight:    c.cfg.MaxInFlight,
		QueueDepth:     c.cfg.QueueDepth,
		Rate:           c.cfg.Rate,
		Burst:          c.cfg.Burst,
		MaxCost:        c.cfg.MaxCost,
		InFlight:       c.InFlight(),
		Queued:         c.Queued(),
		TrackedClients: c.TrackedClients(),
		Admitted:       c.admitted.Load(),
		Shed:           c.shed.Load(),
		Throttled:      c.throttled.Load(),
		CostRejected:   c.costRejected.Load(),
	}
}
