package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer:
// name, start, end, the span that caused it, and a key the spans of one
// op or session share (trace.SessionKey for fleet sessions). Spans stay
// in memory. fold, called between ops, adds every span's duration and
// self time to its layer's totals and keeps only the first op's spans,
// so a long traced run stays small; writeJSON writes those spans and
// the totals when the run ends. Safe for concurrent use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	first  []span
	layers map[string]*layerTotal
}

type span struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotal is one layer's share of the traced run. Self time is the
// span time its child spans do not cover.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: make(map[string]*layerTotal)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, key string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Key: key, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	d := s.End - s.Start
	t.mu.Unlock()
	return time.Duration(d)
}

// fold aggregates the finished op's spans into the layer totals. No
// span may be open.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		dur := s.End - s.Start
		lt := t.layers[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			t.layers[s.Name] = lt
		}
		lt.Count++
		lt.TotalUS += float64(dur) / 1e3
		lt.SelfUS += float64(dur-t.covered(s, children[i])) / 1e3
	}
	if t.first == nil {
		t.first = append([]span{}, t.spans...)
	}
	t.spans = t.spans[:0]
}

// covered returns how much of s the union of its children's intervals
// covers.
func (t *tracer) covered(s span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += max(hi-lo, 0)
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + max(hi-lo, 0)
}

// writeJSON writes the first op's spans and every layer's totals,
// largest self time first.
func (t *tracer) writeJSON(path, workload string, seed uint64) error {
	t.mu.Lock()
	layers := make([]*layerTotal, 0, len(t.layers))
	for _, lt := range t.layers {
		layers = append(layers, lt)
	}
	out := struct {
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Layers   []*layerTotal `json:"layers"`
		Spans    []span        `json:"spans"`
	}{workload, seed, layers, t.first}
	t.mu.Unlock()
	sort.Slice(layers, func(i, j int) bool { return layers[i].SelfUS > layers[j].SelfUS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
