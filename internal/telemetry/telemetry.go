// Package telemetry is a zero-dependency metrics registry with
// Prometheus text-format exposition — the instrumentation backbone of
// the serving stack.
//
// A Registry holds metric families (counter, gauge, histogram), each
// with a fixed label schema. Families fan out into children per label
// value tuple; children are lock-free atomics on the hot path, so a
// counter increment or histogram observation costs one or two atomic
// ops. Snapshot-style values (a store version, replication lag) are
// registered as GaugeFunc/CounterFunc callbacks evaluated at scrape
// time, so subsystems that already keep their own counters expose them
// without double bookkeeping.
//
// Every constructor is get-or-create: registering the same name again
// with an identical schema returns the existing family, while a
// conflicting re-registration panics — a programming error, like a
// duplicate flag. The nil *Registry is a valid no-op sink: every
// derived Vec and Metric is nil and every method on them no-ops, which
// is how instrumentation is disabled wholesale without branching at
// call sites.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-second cold
// materializations.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is a set of metric families. Safe for concurrent use; the
// nil registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	// fn, when set, makes this a callback family: a single unlabeled
	// series whose value is computed at scrape time.
	fn func() float64

	mu       sync.Mutex
	children map[string]*Metric
}

// Vec is a handle to a labeled family; With resolves one label value
// tuple to its Metric. The nil Vec resolves to the nil Metric.
type Vec struct{ fam *family }

// Metric is one series: a counter, gauge, or histogram child. All
// methods are safe for concurrent use and no-ops on the nil Metric.
type Metric struct {
	fam    *family
	values []string // label values, aligned with fam.labels

	bits atomic.Uint64 // float64 bits: counter/gauge value, histogram sum

	// Histogram state: one count per bucket (non-cumulative; exposition
	// accumulates) plus the +Inf overflow at index len(buckets).
	counts []atomic.Uint64
	count  atomic.Uint64
}

// register is the shared get-or-create path.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string, fn func() float64) *family {
	if r == nil {
		return nil
	}
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		fn:       fn,
		children: make(map[string]*Metric),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family with the given label
// names.
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	f := r.register(name, help, KindCounter, nil, labels, nil)
	if f == nil {
		return nil
	}
	return &Vec{fam: f}
}

// Gauge registers (or returns) a gauge family with the given label
// names.
func (r *Registry) Gauge(name, help string, labels ...string) *Vec {
	f := r.register(name, help, KindGauge, nil, labels, nil)
	if f == nil {
		return nil
	}
	return &Vec{fam: f}
}

// Histogram registers (or returns) a histogram family. buckets are the
// ascending upper bounds (the +Inf bucket is implicit); nil uses
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Vec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	f := r.register(name, help, KindHistogram, buckets, labels, nil)
	if f == nil {
		return nil
	}
	return &Vec{fam: f}
}

// GaugeFunc registers an unlabeled gauge whose value is fn() at scrape
// time — the bridge for subsystems that already keep their own state
// (store version, replication lag, cache occupancy).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, nil, nil, fn)
}

// CounterFunc registers an unlabeled counter read from fn() at scrape
// time. fn must be monotonically non-decreasing for the exposition to
// be honest; the registry does not enforce it.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, nil, nil, fn)
}

// With resolves the child series for the given label values (one per
// label name, in registration order). Children are created on first
// use and cached; With on the nil Vec returns the nil Metric.
func (v *Vec) With(values ...string) *Metric {
	if v == nil || v.fam == nil {
		return nil
	}
	f := v.fam
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := appendChildKey(buf[:0], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[string(key)]; ok { // a lookup by string(key) does not allocate
		return m
	}
	m := &Metric{fam: f, values: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		m.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.children[string(key)] = m
	return m
}

// appendChildKey appends to b the label values joined unambiguously,
// each as "len:value," (values may contain any byte, so a plain join
// could collide).
func appendChildKey(b []byte, values []string) []byte {
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
		b = append(b, ',')
	}
	return b
}

// Inc adds 1 to a counter or gauge.
func (m *Metric) Inc() { m.Add(1) }

// Dec subtracts 1 from a gauge.
func (m *Metric) Dec() { m.Add(-1) }

// Add adds delta to a counter or gauge (negative deltas are the
// caller's contract: gauges only).
func (m *Metric) Add(delta float64) {
	if m == nil {
		return
	}
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set sets a gauge to v.
func (m *Metric) Set(v float64) {
	if m == nil {
		return
	}
	m.bits.Store(math.Float64bits(v))
}

// Observe records one histogram observation.
func (m *Metric) Observe(v float64) {
	if m == nil {
		return
	}
	i := sort.SearchFloat64s(m.fam.buckets, v) // first bucket with bound >= v
	m.counts[i].Add(1)
	m.count.Add(1)
	m.Add(v) // bits doubles as the sum for histograms
}

// Value returns the current counter/gauge value (histograms: the sum of
// observations). 0 on the nil Metric.
func (m *Metric) Value() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.bits.Load())
}

// Count returns the number of observations of a histogram.
func (m *Metric) Count() uint64 {
	if m == nil {
		return 0
	}
	return m.count.Load()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
