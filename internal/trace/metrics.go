package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Metric kinds as rendered in the Prometheus text exposition format.
const (
	metricGauge     = "gauge"
	metricHistogram = "histogram"
)

// Histogram accumulates observations into fixed cycle buckets plus a
// running sum and count, mirroring the Prometheus histogram type. The
// zero value is unusable: build with NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []uint64 // upper bounds, ascending; implicit +Inf last
	counts []uint64 // len(bounds)+1
	sum    uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending upper
// bucket bounds (cycles).
func NewHistogram(bounds ...uint64) *Histogram {
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.total++
}

// snapshot returns cumulative bucket counts, sum and total.
func (h *Histogram) snapshot() (bounds []uint64, cum []uint64, sum, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return h.bounds, cum, h.sum, h.total
}

// Label is one Prometheus label pair, attached to a metric at
// registration time. Values are escaped at export, so adversarial
// device or provider names cannot corrupt the exposition.
type Label struct {
	Key   string
	Value string
}

// metric is one registered metric with its metadata. Metrics sharing a
// name but differing in labels form one family: the HELP/TYPE header is
// emitted once (from the first registration) and each label set
// contributes its own samples.
type metric struct {
	name   string
	labels []Label
	help   string
	kind   string

	value uint64 // gauges: the value read when the registry was built
	hist  *Histogram
}

// renderLabels renders a label set as the canonical escaped {…} sample
// suffix ("" for an empty set).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// sample renders the full sample name — family name plus the escaped
// {labels} suffix, with extra labels (the histogram `le` bound)
// appended last.
func (m *metric) sample(extra ...Label) string {
	if len(m.labels) == 0 && len(extra) == 0 {
		return m.name
	}
	all := append(append([]Label(nil), m.labels...), extra...)
	return m.name + renderLabels(all)
}

// Registry holds a subsystem's (or the whole platform's) metrics in
// registration order, so exports are deterministic.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.sample()
	if _, dup := r.byName[key]; dup {
		panic(fmt.Sprintf("trace: duplicate metric %q", key))
	}
	r.byName[key] = m
	r.metrics = append(r.metrics, m)
}

// Gauge registers a gauge holding v. A registry is built when it is
// exported, so a gauge is the value its source read at that moment and
// costs the simulation path nothing. Metrics sharing a name form one
// family; registering the same (name, labels) pair twice panics.
func (r *Registry) Gauge(name, help string, v uint64, labels ...Label) {
	r.register(&metric{name: name, labels: labels, help: help, kind: metricGauge, value: v})
}

// GaugeFloat is not supported: the platform is cycle-exact and all
// source values are integral; derived ratios belong to consumers.

// Histogram registers and returns a new histogram with the given
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds ...uint64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(&metric{name: name, help: help, kind: metricHistogram, hist: h})
	return h
}

// AttachHistogram registers an existing histogram — for histograms
// that must exist (and observe) before the export registry is
// assembled.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(&metric{name: name, labels: labels, help: help, kind: metricHistogram, hist: h})
}

// list returns the metrics in registration order.
func (r *Registry) list() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.metrics...)
}
