package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionLints builds a registry exercising every metric kind —
// including label values that need escaping — and validates the full
// exposition output with the shared Lint checker.
func TestExpositionLints(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests served", "endpoint")
	c.With("search").Add(3)
	c.With("batch").Inc()
	g := r.Gauge("test_in_flight", "in-flight requests")
	g.With().Set(2)
	h := r.Histogram("test_latency_seconds", "request latency", nil, "endpoint")
	h.With("search").Observe(0.0007)
	h.With("search").Observe(0.3)
	h.With("search").Observe(42) // beyond the last bound: +Inf only
	r.GaugeFunc("test_version", "live version", func() float64 { return 7 })
	r.CounterFunc("test_fsyncs_total", "fsyncs", func() float64 { return 11 })
	// Label values with every escapable byte class.
	c.With(`quo"te\slash` + "\nnewline").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := Lint(buf.Bytes())
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"test_requests_total", "test_in_flight", "test_latency_seconds",
		"test_version", "test_fsyncs_total",
	} {
		if !series[want] {
			t.Errorf("series %q missing from exposition", want)
		}
	}
	out := buf.String()
	if !strings.Contains(out, `endpoint="quo\"te\\slash\nnewline"`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_bucket{endpoint="search",le="+Inf"} 3`) {
		t.Errorf("+Inf bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, "test_latency_seconds_count{endpoint=\"search\"} 3") {
		t.Errorf("histogram count wrong:\n%s", out)
	}
}

// TestHistogramBuckets pins the bucket assignment rule: an observation
// lands in the first bucket whose bound is >= the value, and exposition
// accumulates.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{0.1, 1, 10})
	m := h.With()
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		m.Observe(v)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 2`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
	if got, want := m.Value(), 0.05+0.1+0.5+5+50; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if m.Count() != 5 {
		t.Errorf("count = %d, want 5", m.Count())
	}
}

// TestGetOrCreate pins the registration contract: identical
// re-registration returns the same family, conflicting schemas panic,
// and the nil registry is a silent sink.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "c", "x")
	b := r.Counter("c_total", "c", "x")
	a.With("1").Add(2)
	if got := b.With("1").Value(); got != 2 {
		t.Errorf("re-registration did not alias: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting re-registration did not panic")
			}
		}()
		r.Gauge("c_total", "now a gauge")
	}()

	var nilReg *Registry
	nilReg.Counter("x_total", "x").With().Inc() // must not panic
	nilReg.GaugeFunc("y", "y", func() float64 { return 0 })
	if err := nilReg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	var nilMetric *Metric
	nilMetric.Inc()
	nilMetric.Observe(1)
	nilMetric.Set(3)
	if nilMetric.Value() != 0 || nilMetric.Count() != 0 {
		t.Error("nil metric not zero")
	}
}

// TestWithExistingChildAllocatesNothing: resolving a child that exists
// allocates nothing; values longer than the key's stack buffer still
// find their child, and values a plain join would run together stay
// distinct children.
func TestWithExistingChildAllocatesNothing(t *testing.T) {
	v := NewRegistry().Histogram("phase_seconds", "p", []float64{1}, "endpoint", "phase")
	m := v.With("search", "materialize")
	if allocs := testing.AllocsPerRun(100, func() { v.With("search", "materialize").Observe(0.5) }); allocs != 0 {
		t.Errorf("With on an existing child allocates %v times, want 0", allocs)
	}
	if v.With("search", "materialize") != m {
		t.Error("With does not return the existing child")
	}
	long := strings.Repeat("x", 200)
	if v.With(long, long) != v.With(long, long) {
		t.Error("With of long values does not return the existing child")
	}
	if v.With("a,1:b", "c") == v.With("a", "b,1:c") {
		t.Error("label values that join alike share a child")
	}
}

// TestLintRejects feeds Lint malformed expositions and asserts each is
// caught — the checker must not pass vacuously.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "foo_total 1\n",
		"TYPE without HELP":   "# TYPE foo_total counter\nfoo_total 1\n",
		"bad value":           "# HELP f f\n# TYPE f counter\nf one\n",
		"bad label pair":      "# HELP f f\n# TYPE f counter\nf{x=unquoted} 1\n",
		"non-monotone buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, in := range cases {
		if _, err := Lint([]byte(in)); err == nil {
			t.Errorf("%s: lint accepted malformed input:\n%s", name, in)
		}
	}
	// And a well-formed document passes.
	ok := "# HELP f f\n# TYPE f counter\nf{x=\"y\"} 1\n"
	if _, err := Lint([]byte(ok)); err != nil {
		t.Errorf("well-formed input rejected: %v", err)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines —
// increments, observations, child creation, and scrapes all racing —
// and asserts the final counts are exact. Run with -race in CI.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c", "worker")
	h := r.Histogram("hh_seconds", "h", nil, "worker")
	g := r.Gauge("gg", "g")
	r.GaugeFunc("vv", "v", func() float64 { return 1 })

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.With(id).Inc()
				h.With(id).Observe(float64(i%100) / 1000)
				g.With().Add(1)
				if i%500 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
					}
					if _, err := Lint(buf.Bytes()); err != nil {
						t.Errorf("mid-storm lint: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		id := string(rune('a' + w))
		if got := c.With(id).Value(); got != iters {
			t.Errorf("counter %s = %v, want %d", id, got, iters)
		}
		if got := h.With(id).Count(); got != iters {
			t.Errorf("histogram %s count = %d, want %d", id, got, iters)
		}
	}
	if got := g.With().Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
}
