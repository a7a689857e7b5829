package analyze

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/trace"
)

// The SLO spec is a line-oriented declarative language:
//
//	# IRQ service latency, cycles
//	irq_latency p99 <= 2000c
//	irq_latency max <= 9000c
//	deadline_miss == 0
//	attest_rtt max <= 600000c
//
// Each rule is `<metric> [agg] <op> <value>[c]`. The aggregate is one
// of max, min, mean, p50, p95, p99 or count; when omitted it defaults
// to count (natural for occurrence metrics like deadline_miss). The
// operator is one of <=, <, ==, !=, >=, >. Values are cycles; the `c`
// suffix is optional decoration.
//
// Metrics map onto the span classes of the engine plus the occurrence
// counters:
//
//	irq_latency      irq + tick service spans
//	tick_latency     tick spans only
//	ipc_latency      ipc delivery spans
//	attest_rtt       attestation round-trip spans
//	load_total       whole-load spans, request → schedulable (online
//	                 from the done event's latency, offline from the
//	                 phase events: the same window)
//	fleet_e2e        cross-domain attestation sessions (device hello →
//	                 close, correlated with the plane's verdict events
//	                 by session key)
//	span:<class>     any span class verbatim (e.g. span:load/stream)
//	deadline_miss    KindDeadlineMiss occurrences
//	eampu_violation  KindViolation occurrences
//	fleet_session    KindFleet occurrences (one verdict or refusal per
//	                 attestation session the verifier plane completed)

// Aggregates.
const (
	AggCount = "count"
	AggMax   = "max"
	AggMin   = "min"
	AggMean  = "mean"
	AggP50   = "p50"
	AggP95   = "p95"
	AggP99   = "p99"
)

// Rule is one parsed SLO rule.
type Rule struct {
	Metric string `json:"metric"`
	Agg    string `json:"agg"`
	Op     string `json:"op"`
	Bound  uint64 `json:"bound"`
	// Line is the 1-based spec line, for error messages.
	Line int `json:"-"`
}

// String renders the rule in canonical spec form.
func (r Rule) String() string {
	return fmt.Sprintf("%s %s %s %d", r.Metric, r.Agg, r.Op, r.Bound)
}

// compare applies the rule's operator to a measured value.
func (r Rule) compare(measured uint64) bool {
	switch r.Op {
	case "<=":
		return measured <= r.Bound
	case "<":
		return measured < r.Bound
	case "==":
		return measured == r.Bound
	case "!=":
		return measured != r.Bound
	case ">=":
		return measured >= r.Bound
	case ">":
		return measured > r.Bound
	}
	return false
}

// spanClasses returns the span classes the rule's metric aggregates
// over, or nil for occurrence metrics.
func (r Rule) spanClasses() []string {
	switch r.Metric {
	case "irq_latency":
		return []string{ClassIRQ, ClassTick}
	case "tick_latency":
		return []string{ClassTick}
	case "ipc_latency":
		return []string{ClassIPC}
	case "attest_rtt":
		return []string{ClassAttest}
	case "load_total":
		return []string{ClassLoad}
	case "fleet_e2e":
		return []string{ClassFleetE2E}
	}
	if c, ok := strings.CutPrefix(r.Metric, "span:"); ok {
		return []string{c}
	}
	return nil
}

// occurrenceKind returns the event kind an occurrence metric counts,
// or (0, false) for span metrics.
func (r Rule) occurrenceKind() (trace.Kind, bool) {
	switch r.Metric {
	case "deadline_miss":
		return trace.KindDeadlineMiss, true
	case "eampu_violation":
		return trace.KindViolation, true
	case "fleet_session":
		return trace.KindFleet, true
	}
	return 0, false
}

var validAggs = map[string]bool{
	AggCount: true, AggMax: true, AggMin: true, AggMean: true,
	AggP50: true, AggP95: true, AggP99: true,
}

var validOps = map[string]bool{
	"<=": true, "<": true, "==": true, "!=": true, ">=": true, ">": true,
}

// Spec is a parsed SLO specification.
type Spec struct {
	Rules []Rule
}

// ParseSpec reads an SLO spec: one rule per line, '#' comments, blank
// lines ignored.
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var rule Rule
		rule.Line = lineNo
		switch len(fields) {
		case 3:
			rule.Metric, rule.Agg, rule.Op = fields[0], AggCount, fields[1]
		case 4:
			rule.Metric, rule.Agg, rule.Op = fields[0], fields[1], fields[2]
		default:
			return nil, fmt.Errorf("slo line %d: want `metric [agg] op value`, got %q", lineNo, strings.TrimSpace(line))
		}
		if !validAggs[rule.Agg] {
			return nil, fmt.Errorf("slo line %d: unknown aggregate %q", lineNo, rule.Agg)
		}
		if !validOps[rule.Op] {
			return nil, fmt.Errorf("slo line %d: unknown operator %q", lineNo, rule.Op)
		}
		if _, occ := rule.occurrenceKind(); !occ && rule.spanClasses() == nil {
			return nil, fmt.Errorf("slo line %d: unknown metric %q", lineNo, rule.Metric)
		}
		valStr := strings.TrimSuffix(fields[len(fields)-1], "c")
		v, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("slo line %d: bad value %q: %w", lineNo, fields[len(fields)-1], err)
		}
		rule.Bound = v
		spec.Rules = append(spec.Rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseSpecString parses an SLO spec from a string.
func ParseSpecString(s string) (*Spec, error) {
	return ParseSpec(strings.NewReader(s))
}

// RuleResult is the verdict for one rule.
type RuleResult struct {
	Rule     Rule   `json:"rule"`
	Text     string `json:"text"`     // canonical rule text
	Measured uint64 `json:"measured"` // the aggregated value
	Samples  int    `json:"samples"`  // spans/occurrences aggregated
	Pass     bool   `json:"pass"`
}

// Verdict is the outcome of evaluating a spec.
type Verdict struct {
	Results []RuleResult `json:"results"`
	Pass    bool         `json:"pass"`
}

// Failed returns the failing rule results.
func (v *Verdict) Failed() []RuleResult {
	var out []RuleResult
	for _, r := range v.Results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}

// aggregate reduces sorted durations per the rule's aggregate.
func aggregate(agg string, sorted []uint64) uint64 {
	switch agg {
	case AggCount:
		return uint64(len(sorted))
	case AggMax:
		if len(sorted) == 0 {
			return 0
		}
		return sorted[len(sorted)-1]
	case AggMin:
		if len(sorted) == 0 {
			return 0
		}
		return sorted[0]
	case AggMean:
		if len(sorted) == 0 {
			return 0
		}
		var sum uint64
		for _, d := range sorted {
			sum += d
		}
		return sum / uint64(len(sorted))
	case AggP50:
		return Percentile(sorted, 0.50)
	case AggP95:
		return Percentile(sorted, 0.95)
	case AggP99:
		return Percentile(sorted, 0.99)
	}
	return 0
}

// Evaluate runs the spec against an analysis. A rule over a span class
// with zero closed samples passes vacuously for order-statistic
// aggregates (there is nothing to bound) but still evaluates count
// rules against 0.
func (s *Spec) Evaluate(a *Analysis) *Verdict {
	v := &Verdict{Pass: true}
	for _, rule := range s.Rules {
		res := RuleResult{Rule: rule, Text: rule.String()}
		if kind, occ := rule.occurrenceKind(); occ {
			n := 0
			for _, e := range a.Events {
				if e.Kind == kind {
					n++
				}
			}
			res.Samples = n
			res.Measured = uint64(n)
			res.Pass = rule.compare(res.Measured)
		} else {
			durs := a.Durations(rule.spanClasses()...)
			res.Samples = len(durs)
			res.Measured = aggregate(rule.Agg, durs)
			if len(durs) == 0 && rule.Agg != AggCount {
				res.Pass = true // vacuous: no samples to bound
			} else {
				res.Pass = rule.compare(res.Measured)
			}
		}
		if !res.Pass {
			v.Pass = false
		}
		v.Results = append(v.Results, res)
	}
	return v
}

// Monitor evaluates a spec online, as a trace.Sink attached to the
// live event stream. Only rules falsifiable by a single sample are
// checked online: upper bounds on max over the classes Sample covers
// (one span over the bound decides the rule) and zero/upper bounds on
// occurrence counts. Percentile and mean rules need the full population
// and are deferred to the offline Evaluate pass — Verdict() runs it
// over everything the monitor saw.
//
// On the first violation of each rule the monitor emits one
// KindSLOViolation event into its output sink, stamping the violating
// cycle, the canonical rule text and the measured value. The monitor
// never touches simulated state, preserving the zero-impact contract.
type Monitor struct {
	spec *Spec

	mu     sync.Mutex
	out    trace.Sink
	events []trace.Event
	fired  map[int]bool // rule index → violation already emitted
	counts map[trace.Kind]int
}

// NewMonitor builds an online monitor for the spec. Output is where
// violation events go; it may be nil (set later via SetOutput — the
// monitor is typically constructed before the buffer it reports into).
func NewMonitor(spec *Spec, out trace.Sink) *Monitor {
	return &Monitor{
		spec:   spec,
		out:    out,
		fired:  make(map[int]bool),
		counts: make(map[trace.Kind]int),
	}
}

// SetOutput directs future violation events to out.
func (m *Monitor) SetOutput(out trace.Sink) {
	m.mu.Lock()
	m.out = out
	m.mu.Unlock()
}

// onlineMax reports whether the rule is a single-sample-falsifiable
// upper bound on individual span durations.
func onlineMax(r Rule) bool {
	return r.Agg == AggMax && (r.Op == "<=" || r.Op == "<")
}

// onlineCount reports whether the rule is an upper bound on an
// occurrence count, falsifiable the moment the count crosses it.
func onlineCount(r Rule) bool {
	if _, occ := r.occurrenceKind(); !occ {
		return false
	}
	switch r.Op {
	case "<=", "<":
		return true
	case "==":
		return true // falsified as soon as count exceeds the bound
	}
	return false
}

// Emit implements trace.Sink: record the event and check the online
// rules against it.
func (m *Monitor) Emit(e trace.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.Kind == trace.KindSLOViolation {
		return // never re-analyze our own verdicts
	}
	m.events = append(m.events, e)
	m.counts[e.Kind]++
	class, d, sampled := Sample(e)

	for i, rule := range m.spec.Rules {
		if m.fired[i] {
			continue
		}
		if onlineCount(rule) {
			kind, _ := rule.occurrenceKind()
			n := uint64(m.counts[kind])
			exceeded := false
			switch rule.Op {
			case "<=", "==":
				exceeded = n > rule.Bound
			case "<":
				exceeded = n >= rule.Bound
			}
			if exceeded {
				m.fire(i, rule, e.Cycle, n)
			}
			continue
		}
		if sampled && onlineMax(rule) && slices.Contains(rule.spanClasses(), class) && !rule.compare(d) {
			m.fire(i, rule, e.Cycle, d)
		}
	}
}

// fire emits the violation event for rule i (caller holds m.mu).
func (m *Monitor) fire(i int, rule Rule, cycle, measured uint64) {
	m.fired[i] = true
	if m.out == nil {
		return
	}
	m.out.Emit(trace.Event{
		Cycle:   cycle,
		Sub:     trace.SubAnalyze,
		Kind:    trace.KindSLOViolation,
		Subject: rule.Metric,
		Attrs: []trace.Attr{
			trace.Str("rule", rule.String()),
			trace.Num("measured", measured),
		},
	})
}

// Violations returns how many rules have fired online so far.
func (m *Monitor) Violations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fired)
}

// FiredRules returns the canonical text of the rules that fired
// online, in spec order.
func (m *Monitor) FiredRules() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := make([]int, 0, len(m.fired))
	for i := range m.fired {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		out = append(out, m.spec.Rules[i].String())
	}
	return out
}

// Verdict runs the full offline evaluation over every event the
// monitor observed — the complete check, including percentile rules
// the online pass defers.
func (m *Monitor) Verdict() *Verdict {
	m.mu.Lock()
	events := append([]trace.Event(nil), m.events...)
	m.mu.Unlock()
	return m.spec.Evaluate(Analyze(events))
}
