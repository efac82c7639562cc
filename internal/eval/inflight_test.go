package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// The in-flight guard (Cache.lookup, walker.get): one build per missing
// key, its concurrent readers waiting for it. Each test below fails with
// the guard removed: its readers then build the key themselves, and the
// product counts say so.

// inFlightDeadline bounds every wait in these tests: a waiter nobody
// wakes fails the test instead of hanging it.
const inFlightDeadline = 10 * time.Second

// within runs the functions concurrently and fails the test unless all
// of them return before the deadline.
func within(t *testing.T, fns ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(inFlightDeadline):
		t.Fatal("evaluation still blocked after the deadline")
	}
}

// coldRead runs readers concurrently, each on its own evaluator with
// canonical keys over cache, each reading every pattern of ps starting
// at a different one, while the first product is held so the other
// readers miss on the keys it is building. It returns the products all
// readers performed, the misses their evaluators counted, and each
// reader's matrices in ps order.
func coldRead(t *testing.T, g *graph.Graph, cache *Cache, ps []*rre.Pattern, readers int) (products int64, misses uint64, got [][]*sparse.Matrix) {
	t.Helper()
	var n atomic.Int64
	evs := make([]*Evaluator, readers)
	got = make([][]*sparse.Matrix, readers)
	fns := make([]func(), readers)
	for r := range evs {
		ev := NewVersioned(g, 0, cache)
		ev.SetCanonicalKeys(true)
		ev.SetMulHook(func(_, _ *sparse.Matrix) {
			if n.Add(1) == 1 {
				time.Sleep(50 * time.Millisecond)
			}
		})
		evs[r] = ev
		got[r] = make([]*sparse.Matrix, len(ps))
		fns[r] = func() {
			for i := range ps {
				j := (r + i) % len(ps)
				got[r][j] = ev.Commuting(ps[j])
			}
		}
	}
	within(t, fns...)
	for _, ev := range evs {
		misses += ev.Counters().Misses.Load()
	}
	return n.Load(), misses, got
}

// matchDirect fails the test unless every reader's matrices equal
// direct, uncached evaluation of ps.
func matchDirect(t *testing.T, g *graph.Graph, ps []*rre.Pattern, got [][]*sparse.Matrix) {
	t.Helper()
	direct := New(g)
	for i, p := range ps {
		want := direct.Commuting(p)
		for r := range got {
			if !got[r][i].Equal(want) {
				t.Fatalf("reader %d, %s: matrix differs from direct evaluation", r, p)
			}
		}
	}
}

// TestInFlightSingleMaterialization: concurrent cold readers build every
// distinct subexpression exactly once — the products they perform match
// the walk's count (star-free, so the count is exact), with one miss
// per cache entry — a warm re-read performs zero products, and the
// matrices match direct evaluation.
func TestInFlightSingleMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 9, 24, []string{"a", "b", "c", "d", "e"})
	ps := mustParseAll(t, []string{
		"(a.b + c).d",
		"e.(a.b + c)",
		"(c + a.b).d",
		"a.b.c",
	})
	cache := NewCache()
	products, misses, got := coldRead(t, g, cache, ps, 4)
	if want := int64(PlanWorkload(ps).Stats().Products); products != want {
		t.Errorf("cold readers performed %d products, the walk counts %d (duplicate materialization?)", products, want)
	}
	if st := cache.Stats(); st.Misses != uint64(st.Size) || misses != st.Misses {
		t.Errorf("misses: cache %d, evaluators %d, for %d entries; want one per entry", st.Misses, misses, st.Size)
	}
	if products, _, _ := coldRead(t, g, cache, ps, 4); products != 0 {
		t.Errorf("warm re-read performed %d products, want 0", products)
	}
	matchDirect(t, g, ps, got)
}

// TestInFlightHighFanoutOnce: one disjunction block shared by ten
// parents is built once even when eight cold readers, each starting at
// a different parent, miss on it together: 11 products (a.b and the ten
// roots).
func TestInFlightHighFanoutOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	labels := []string{"a", "b", "c", "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"}
	g := randomGraph(rng, 12, 40, labels)
	var ps []*rre.Pattern
	for i := 0; i < 10; i++ {
		ps = append(ps, rre.MustParse(fmt.Sprintf("(a.b + c).x%d", i)))
	}
	if got := PlanWorkload(ps).Stats().Products; got != 11 {
		t.Fatalf("walk counts %d products, want 11", got)
	}
	products, _, got := coldRead(t, g, NewCache(), ps, 8)
	if products != 11 {
		t.Errorf("cold readers performed %d products, want 11", products)
	}
	matchDirect(t, g, ps, got)
}

// TestInFlightEmptyAndConcurrent: reading no patterns builds nothing,
// and concurrent readers of starred and bracketed patterns over one
// shared cache race safely (run under -race); the matrices, read both
// cold and warm, still match direct evaluation.
func TestInFlightEmptyAndConcurrent(t *testing.T) {
	cache := NewCache()
	g := randomGraph(rand.New(rand.NewSource(1)), 4, 6, []string{"a"})
	if products, _, _ := coldRead(t, g, cache, nil, 4); products != 0 || cache.Stats().Size != 0 {
		t.Errorf("empty read: %d products, %d entries; want none", products, cache.Stats().Size)
	}

	rng := rand.New(rand.NewSource(37))
	g = randomGraph(rng, 10, 30, []string{"a", "b", "c"})
	ps := mustParseAll(t, []string{"(a+b).c", "c.(b+a)", "[a.b]", "<a.c>*"})
	cache = NewCache()
	_, _, cold := coldRead(t, g, cache, ps, 4)
	matchDirect(t, g, ps, cold)
	_, _, warm := coldRead(t, g, cache, ps, 4)
	matchDirect(t, g, ps, warm)
}

// TestInFlightWaiterCanceled: a reader waiting on a build another
// evaluator holds stops waiting when its context ends, with *Canceled
// and no product of its own, while the builder is still blocked in its
// first product. The released builder then finishes correctly.
func TestInFlightWaiterCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 8, 20, []string{"a", "b", "c", "d"})
	p := rre.MustParse("a.b.c.d")
	cache := NewCache()

	builder := NewVersioned(g, 0, cache)
	entered, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	builder.SetMulHook(func(_, _ *sparse.Matrix) {
		hold.Do(func() {
			close(entered)
			<-release
		})
	})
	var built *sparse.Matrix
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		built = builder.Commuting(p)
	}()
	within(t, func() { <-entered })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiter := NewVersioned(g, 0, cache).WithContext(ctx)
	var waiterProducts atomic.Int64
	waiter.SetMulHook(func(_, _ *sparse.Matrix) { waiterProducts.Add(1) })
	var err error
	within(t, func() {
		// Cancel once the waiter has had time to reach the build in
		// flight. It returns *Canceled wherever the cancel finds it; only
		// a reader that builds instead of waiting returns a matrix.
		stop := time.AfterFunc(20*time.Millisecond, cancel)
		defer stop.Stop()
		err = Guard(func() error {
			waiter.Commuting(p)
			return nil
		})
	})
	var c *Canceled
	if !errors.As(err, &c) || !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("waiter error = %v, want *Canceled wrapping context.Canceled", err)
	}
	if n := waiterProducts.Load(); n != 0 {
		t.Errorf("waiter performed %d products, want 0", n)
	}
	select {
	case <-builderDone:
		t.Fatal("builder finished while its first product was held")
	default:
	}

	close(release)
	within(t, func() { <-builderDone })
	if !built.Equal(New(g).Commuting(p)) {
		t.Error("builder's matrix differs from direct evaluation")
	}
}

// TestInFlightBuilderCanceledWakesWaiters: a builder whose context is
// cancelled inside its first product aborts with *Canceled at the next
// product boundary and wakes the readers waiting on its build. One of
// them builds what is left, the rest wait for it: the waiters perform
// the two remaining products between them, and every one gets the
// matrix of direct evaluation.
func TestInFlightBuilderCanceledWakesWaiters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 8, 20, []string{"a", "b", "c", "d"})
	p := rre.MustParse("a.b.c.d")
	cache := NewCache()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builder := NewVersioned(g, 0, cache).WithContext(ctx)
	entered := make(chan struct{})
	var builderProducts atomic.Int64
	builder.SetMulHook(func(_, _ *sparse.Matrix) {
		// Cancel during the first product, once the waiters have had
		// time to join: the builder must stop at the next product
		// boundary instead of finishing the chain.
		if builderProducts.Add(1) == 1 {
			close(entered)
			time.Sleep(50 * time.Millisecond)
			cancel()
		}
	})
	var builderErr error
	fns := []func(){func() {
		builderErr = Guard(func() error {
			builder.Commuting(p)
			return nil
		})
	}}

	const waiters = 3
	var waiterProducts atomic.Int64
	got := make([]*sparse.Matrix, waiters)
	for i := range got {
		fns = append(fns, func() {
			<-entered
			ev := NewVersioned(g, 0, cache)
			ev.SetMulHook(func(_, _ *sparse.Matrix) { waiterProducts.Add(1) })
			got[i] = ev.Commuting(p)
		})
	}
	within(t, fns...)

	var c *Canceled
	if !errors.As(builderErr, &c) || !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("builder error = %v, want *Canceled wrapping context.Canceled", builderErr)
	}
	if n := builderProducts.Load(); n != 1 {
		t.Errorf("builder performed %d products before aborting, want 1", n)
	}
	// a.b landed before the abort; d-.c- and the root are left.
	if n := waiterProducts.Load(); n != 2 {
		t.Errorf("waiters performed %d products, want 2", n)
	}
	want := New(g).Commuting(p)
	for i, m := range got {
		if !m.Equal(want) {
			t.Errorf("waiter %d: matrix differs from direct evaluation", i)
		}
	}
}
