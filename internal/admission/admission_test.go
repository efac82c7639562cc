package admission

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestDisabledConfig(t *testing.T) {
	if New(Config{}) != nil {
		t.Fatal("zero config must build a nil controller")
	}
	var c *Controller
	if ok, _ := c.Allow("x"); !ok {
		t.Fatal("nil controller must allow")
	}
	release, ok, _ := c.Acquire(context.Background())
	if !ok {
		t.Fatal("nil controller must admit")
	}
	release()
	if c.MaxCost() != 0 || c.InFlight() != 0 || c.Stats().Enabled {
		t.Fatal("nil controller stats must be zero")
	}
}

func TestGateAdmitsUpToCapacity(t *testing.T) {
	c := New(Config{MaxInFlight: 2})
	r1, ok, _ := c.Acquire(context.Background())
	r2, ok2, _ := c.Acquire(context.Background())
	if !ok || !ok2 {
		t.Fatal("capacity admissions failed")
	}
	if c.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", c.InFlight())
	}
	// No queue configured: the third request sheds immediately.
	if _, ok, _ := c.Acquire(context.Background()); ok {
		t.Fatal("over-capacity request admitted with no queue")
	}
	if c.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", c.Shed())
	}
	r1()
	if r3, ok, _ := c.Acquire(context.Background()); !ok {
		t.Fatal("freed slot not admitted")
	} else {
		r3()
	}
	r2()
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after releases, want 0", c.InFlight())
	}
	if c.Admitted() != 3 {
		t.Fatalf("Admitted = %d, want 3", c.Admitted())
	}
}

func TestGateQueueAdmitsWhenSlotFrees(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 5 * time.Second})
	r1, ok, _ := c.Acquire(context.Background())
	if !ok {
		t.Fatal("first admission failed")
	}
	done := make(chan time.Duration, 1)
	go func() {
		release, ok, waited := c.Acquire(context.Background())
		if !ok {
			done <- -1
			return
		}
		release()
		done <- waited
	}()
	// Wait until the second request is queued, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	r1()
	if w := <-done; w < 0 {
		t.Fatal("queued request was shed instead of admitted")
	} else if w == 0 {
		t.Fatal("queued admission must report a nonzero wait")
	}
	if c.Queued() != 0 {
		t.Fatalf("Queued = %d after drain, want 0", c.Queued())
	}
}

func TestGateQueueFullSheds(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 5 * time.Second})
	r1, _, _ := c.Acquire(context.Background())
	defer r1()
	// Occupy the single queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan struct{})
	go func() {
		close(queued)
		c.Acquire(ctx)
	}()
	<-queued
	deadline := time.Now().Add(2 * time.Second)
	for c.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never occupied")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: next request sheds without blocking.
	start := time.Now()
	if _, ok, _ := c.Acquire(context.Background()); ok {
		t.Fatal("request admitted past a full queue")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("full-queue shed took %v, want O(1)", el)
	}
}

func TestGateQueueWaitExpires(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 20 * time.Millisecond})
	r1, _, _ := c.Acquire(context.Background())
	defer r1()
	_, ok, waited := c.Acquire(context.Background())
	if ok {
		t.Fatal("queued request admitted with the slot still held")
	}
	if waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, want >= QueueWait", waited)
	}
	if c.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", c.Shed())
	}
}

func TestGateQueueContextCancel(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 5 * time.Second})
	r1, _, _ := c.Acquire(context.Background())
	defer r1()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, ok, _ := c.Acquire(ctx); ok {
		t.Fatal("canceled waiter admitted")
	}
	if c.Queued() != 0 {
		t.Fatalf("Queued = %d after cancel, want 0", c.Queued())
	}
}

// fakeClock steps a controller's limiter clock manually.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func TestRateLimitBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Rate: 2, Burst: 3})
	c.now = clk.now
	for i := 0; i < 3; i++ {
		if ok, _ := c.Allow("k"); !ok {
			t.Fatalf("burst request %d throttled", i)
		}
	}
	ok, retry := c.Allow("k")
	if ok {
		t.Fatal("request past the burst admitted")
	}
	// At 2 tokens/s a full token is 500ms away.
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 500ms]", retry)
	}
	if c.Throttled() != 1 {
		t.Fatalf("Throttled = %d, want 1", c.Throttled())
	}
	clk.advance(retry)
	if ok, _ := c.Allow("k"); !ok {
		t.Fatal("refilled bucket still throttled")
	}
	// Refill caps at the burst: a long idle client gets 3, not more.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := c.Allow("k"); !ok {
			t.Fatalf("post-idle burst request %d throttled", i)
		}
	}
	if ok, _ := c.Allow("k"); ok {
		t.Fatal("idle refill exceeded the burst capacity")
	}
}

func TestRateLimitKeysAreIndependent(t *testing.T) {
	c := New(Config{Rate: 1, Burst: 1})
	c.now = newFakeClock().now
	if ok, _ := c.Allow("a"); !ok {
		t.Fatal("first a throttled")
	}
	if ok, _ := c.Allow("a"); ok {
		t.Fatal("second a admitted")
	}
	if ok, _ := c.Allow("b"); !ok {
		t.Fatal("fresh key b throttled by a's bucket")
	}
}

func TestRateLimitKeyBoundEvictsLRU(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Rate: 1, Burst: 1, MaxClients: 3})
	c.now = clk.now
	c.Allow("a")
	c.Allow("b")
	c.Allow("c")
	if c.TrackedClients() != 3 {
		t.Fatalf("TrackedClients = %d, want 3", c.TrackedClients())
	}
	c.Allow("a") // refresh a; b is now the LRU
	c.Allow("d") // evicts b
	if c.TrackedClients() != 3 {
		t.Fatalf("TrackedClients = %d after eviction, want 3", c.TrackedClients())
	}
	// b restarts with a full bucket (eviction is generous, never unfair)...
	if ok, _ := c.Allow("b"); !ok {
		t.Fatal("evicted key b did not restart with a full bucket")
	}
	// ...while a, still tracked, stays drained.
	if ok, _ := c.Allow("a"); ok {
		t.Fatal("tracked key a was wrongly reset")
	}
}

func TestCostCeiling(t *testing.T) {
	c := New(Config{MaxCost: 100})
	if c == nil {
		t.Fatal("MaxCost alone must enable the controller")
	}
	if c.MaxCost() != 100 {
		t.Fatalf("MaxCost = %d, want 100", c.MaxCost())
	}
	c.RejectCost()
	c.RejectCost()
	if c.CostRejected() != 2 {
		t.Fatalf("CostRejected = %d, want 2", c.CostRejected())
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := New(Config{MaxInFlight: 4, QueueDepth: 2, Rate: 5, Burst: 10, MaxCost: 50})
	release, _, _ := c.Acquire(context.Background())
	defer release()
	c.Allow("k")
	st := c.Stats()
	if !st.Enabled || st.MaxInFlight != 4 || st.QueueDepth != 2 || st.MaxCost != 50 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if st.InFlight != 1 || st.Admitted != 1 || st.TrackedClients != 1 {
		t.Fatalf("live counters wrong: %+v", st)
	}
}

func TestConcurrentStorm(t *testing.T) {
	c := New(Config{MaxInFlight: 4, QueueDepth: 4, QueueWait: time.Millisecond, Rate: 1e9, Burst: 1 << 30})
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxSeen := 0
	var inflight int
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if ok, _ := c.Allow("k"); !ok {
					continue
				}
				release, ok, _ := c.Acquire(context.Background())
				if !ok {
					continue
				}
				mu.Lock()
				inflight++
				if inflight > maxSeen {
					maxSeen = inflight
				}
				mu.Unlock()
				mu.Lock()
				inflight--
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	if maxSeen > 4 {
		t.Fatalf("observed %d concurrent admissions, cap is 4", maxSeen)
	}
	if c.InFlight() != 0 || c.Queued() != 0 {
		t.Fatalf("leaked slots: inflight=%d queued=%d", c.InFlight(), c.Queued())
	}
	total := c.Admitted() + c.Shed()
	if total == 0 || c.Admitted() == 0 {
		t.Fatalf("storm accounting empty: admitted=%d shed=%d", c.Admitted(), c.Shed())
	}
}
