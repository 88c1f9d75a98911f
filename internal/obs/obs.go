// Package obs is the stack's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms, and
// their labelled Vec variants) with Prometheus text-format exposition,
// plus campaign traces whose spans ride the context (trace.go): the
// code doing the work opens each span under the one its ctx carries.
//
// The registry follows the Prometheus data model but none of its
// client library: metric families are registered once, at package
// level, under constant names; series are cheap to update from hot
// paths (a counter increment is one atomic add); exposition walks a
// consistent snapshot of the registry. Registration panics on a
// duplicate or malformed name — both are programming errors, caught
// the first time the package is linked, and the spexlint `obsmetric`
// analyzer enforces the constant-name discipline statically.
//
// Instrumented packages hold their metrics as package-level vars bound
// to Default(), the process-global registry, e.g.:
//
//	const metricTasks = "spex_engine_tasks_total"
//	var mTasks = obs.Default().Counter(metricTasks, "tasks executed")
//
// which spexd serves at GET /metrics and the CLIs' -metrics-out flag
// writes to a file at exit, both as the one encoding WritePrometheus
// renders.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

var (
	validName  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families keyed by name. The zero value is not
// usable; construct with NewRegistry or use the process-global
// Default().
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry. Most code should register
// against Default() instead so spexd's /metrics and the CLIs'
// -metrics-out see every series; fresh registries exist for tests.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var std = NewRegistry()

// Default returns the process-global registry that all instrumented
// packages register into.
func Default() *Registry { return std }

// family is one named metric with a fixed label schema; its children
// are the live series, keyed by joined label values.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]metric
}

type metric interface{ isMetric() }

// labelSep joins label values into a child key; a NUL byte never
// occurs in well-formed label values, so the join is unambiguous.
const labelSep = "\x00"

func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %s: histogram bounds not strictly increasing", name))
		}
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]metric),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.fams[name] = f
	return f
}

func (f *family) child(values []string) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		m = newHistogram(f.bounds)
	}
	f.children[key] = m
	return m
}

// Counter registers a monotonically increasing counter. Panics if the
// name is malformed or already registered.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge registers a gauge: a value that can go up and down.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram registers a fixed-bucket histogram. Bounds are inclusive
// upper bucket bounds in increasing order; an implicit +Inf bucket is
// always appended.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, bounds).child(nil).(*Histogram)
}

// CounterVec registers a counter family with the given label schema.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers a gauge family with the given label schema.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers a histogram family with the given label
// schema; every child shares the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// Counter is a monotonically increasing value. All methods are safe
// for concurrent use.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) isMetric() {}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; counters only move forward, so n is unsigned.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value stored as a float64.
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) isMetric() {}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their
// sum. Buckets follow Prometheus semantics: an observation lands in
// the first bucket whose upper bound is >= the value, with a final
// implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *Histogram) isMetric() {}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CounterVec is a counter family over a label schema.
type CounterVec struct{ f *family }

// With returns the counter child for the given label values (one per
// registered label, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family over a label schema.
type GaugeVec struct{ f *family }

// With returns the gauge child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family over a label schema.
type HistogramVec struct{ f *family }

// With returns the histogram child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// DurationBuckets is the default bucket layout for latency
// histograms, in seconds: 100µs up to 10s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default bucket layout for byte-size histograms:
// 256 B up to 16 MiB.
var SizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20,
}
