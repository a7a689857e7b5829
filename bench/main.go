// Command bench is the repository's benchmark. It runs one named
// workload closed-loop for a fixed time after its set-up and warm-up,
// checks every output (exact guest goldens, fleet invariants), and
// prints each end-to-end metric by name and unit, as medians scaled to
// a fixed reference computation's speed (calib.go). With -trace 1 it
// replays the workload through public APIs with spans around each
// layer call, runs the per-layer micro-benchmarks, and prints the
// per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload usecase --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare old.jsonl new.jsonl
//
// The last line of standard output is the result object; the line
// before it is the full run record (environment, informational fields,
// guest digests). -compare reads files of such lines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	duration  time.Duration
	trace     bool
	setups    int    // set-ups behind setup_s
	benchtime string // per-layer micro-benchmark budget (testing -benchtime syntax)
	spansPath string // where a traced run writes its spans ("" = nowhere)
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name  string
	run   func(*runState) error // untraced: fills the end-to-end metrics
	trace func(*runState) error // traced replay: fills replayLayer
}

var workloads = []workload{
	{"usecase", runUseCase, traceUseCase},
	{"kernel", runKernel, traceKernel},
	{"fleet", func(r *runState) error { return runFleet(r, false) }, func(r *runState) error { return traceFleet(r, false) }},
	{"fleet-telemetry", func(r *runState) error { return runFleet(r, true) }, func(r *runState) error { return traceFleet(r, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runState accumulates one run's accounting and metrics.
type runState struct {
	cfg       config
	attempted int
	failed    int
	failures  []string // first few failure messages
	metrics   map[string]float64
	info      map[string]float64 // informational, ungated
	guest     map[string]float64 // exact guest digests, checked against goldens
	windows   []*window
	tracer    *tracer
}

func newRunState(cfg config) *runState {
	r := &runState{
		cfg:     cfg,
		metrics: make(map[string]float64),
		info:    make(map[string]float64),
		guest:   make(map[string]float64),
	}
	if cfg.trace {
		r.tracer = newTracer()
	}
	return r
}

// check counts one attempted op and, when err is non-nil, one failure.
func (r *runState) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// setup runs fn cfg.setups times and records their median, at
// nominal speed, as setup_s. Each set-up is scaled by the mean of the
// reference just before and just after it. A set-up error aborts the
// run.
func (r *runState) setup(fn func() error) error {
	n := max(r.cfg.setups, 1)
	raw := make([]float64, 0, n)
	scaled := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		before := refNow()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		ref := (before + refNow()) / 2
		raw = append(raw, d)
		scaled = append(scaled, d*refScale(ref))
	}
	r.metrics["setup_s"] = median(scaled)
	r.info["raw_setup_s"] = median(raw)
	return nil
}

// window is about one second of a run: its ops' host times, how many
// ops completed and how long they took, and the reference samples
// timed between them.
type window struct {
	lat  []float64 // host µs per op (fleet: per session)
	ops  float64   // completed ops (fleet: attested sessions)
	busy time.Duration
	ref  []float64
}

const (
	windowLen = time.Second
	refEvery  = 50 * time.Millisecond
)

// loop runs op back to back until the run's duration is spent, timing
// the reference between ops every refEvery and cutting the run into
// windows. It returns the op count, the elapsed time and the bytes
// allocated meanwhile. Every op runs at least once.
func (r *runState) loop(op func(w *window) error) (ops int, elapsed time.Duration, alloc uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	deadline := start.Add(r.cfg.duration)
	wEnd := start.Add(windowLen)
	var lastRef time.Time
	w := &window{}
	for {
		if time.Since(lastRef) >= refEvery {
			w.ref = append(w.ref, refSample())
			lastRef = time.Now()
		}
		r.check(op(w))
		ops++
		now := time.Now()
		if !now.Before(wEnd) {
			r.windows = append(r.windows, w)
			w = &window{}
			wEnd = now.Add(windowLen)
		}
		if !now.Before(deadline) {
			break
		}
	}
	if len(r.windows) == 0 {
		r.windows = append(r.windows, w) // a run shorter than one window
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	return ops, elapsed, ms.TotalAlloc - alloc0
}

// summarizeWindows reports op_us_p50 and ops_per_s at nominal speed:
// each window's median op time and throughput are scaled by refScale of
// the window's reference median, and the run reports the median over
// its windows. op_us_p90, scaled the same way, and the unscaled
// whole-run values (raw_*) go to the record: a kernel pass's tail is
// host noise, 8–14% apart between runs, too wide to gate.
func (r *runState) summarizeWindows() {
	var p50, p90, rate, refs, all []float64
	var ops float64
	var busy time.Duration
	for _, w := range r.windows {
		all = append(all, w.lat...)
		ops += w.ops
		busy += w.busy
		if len(w.lat) == 0 || len(w.ref) == 0 || w.busy <= 0 {
			continue
		}
		ref := median(w.ref)
		s := refScale(ref)
		p50 = append(p50, percentile(w.lat, 0.50)*s)
		p90 = append(p90, percentile(w.lat, 0.90)*s)
		rate = append(rate, w.ops/w.busy.Seconds()/s)
		refs = append(refs, ref)
	}
	r.metrics["op_us_p50"] = median(p50)
	r.metrics["ops_per_s"] = median(rate)
	r.info["op_us_p90"] = median(p90)
	r.info["ref_us"] = median(refs)
	r.info["windows"] = float64(len(p50))
	r.info["raw_op_us_p50"] = percentile(all, 0.50)
	r.info["raw_op_us_p90"] = percentile(all, 0.90)
	r.info["raw_op_us_p99"] = percentile(all, 0.99)
	r.info["raw_ops_per_s"] = ops / busy.Seconds()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the host a run measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOARCH     string `json:"goarch"`
}

// record is the full account of one run: the result's metrics plus
// everything informational. -compare reads these.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Ops       int                `json:"ops"`
	FailedOps int                `json:"failed_ops"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Guest     map[string]float64 `json:"guest"`
	Env       env                `json:"env"`
}

// execute runs one workload and returns its record and result.
func execute(cfg config) (record, result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return record{}, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newRunState(cfg)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer()
		start := time.Now()
		if err := runLayerBenches(r); err != nil {
			return record{}, result{}, err
		}
		// The replay gets what the micro-benchmarks left of the run; a
		// layer the workload never calls keeps reporting 0.
		r.cfg.duration = max(cfg.duration-time.Since(start), 0)
		for _, s := range replayLayer {
			r.metrics[s.name] = 0
		}
		if err := w.trace(r); err != nil {
			return record{}, result{}, err
		}
		var refs []float64
		for _, w := range r.windows {
			refs = append(refs, w.ref...)
		}
		r.info["ref_us"] = median(refs)
		if cfg.spansPath != "" {
			if err := r.tracer.writeJSON(cfg.spansPath, cfg.workload, cfg.seed); err != nil {
				return record{}, result{}, err
			}
		}
	} else if err := w.run(r); err != nil {
		return record{}, result{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.info["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}

	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok {
			return record{}, result{}, fmt.Errorf("workload %s did not measure %s", cfg.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.duration.Seconds(),
		Ops:     r.attempted, FailedOps: r.failed, Failures: r.failures,
		Metrics: res.Metrics, Info: r.info, Guest: r.guest,
		Env: env{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GOARCH:     runtime.GOARCH,
		},
	}
	return rec, res, nil
}

func main() {
	testing.Init() // registers -test.benchtime, which the layer benches honour
	var (
		cfg     = config{setups: 15, benchtime: "150ms"}
		seconds float64
		trace   int
		compare bool
	)
	flag.StringVar(&cfg.workload, "workload", "usecase", "workload: usecase, kernel, fleet or fleet-telemetry")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (drives the fleet workloads)")
	flag.Float64Var(&seconds, "seconds", 20, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced replay reporting per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two files of run records: -compare old new")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.duration = time.Duration(seconds * float64(time.Second))
	if cfg.trace {
		cfg.spansPath = ".bench_build/spans-" + cfg.workload + ".json"
	}

	rec, res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	out := json.NewEncoder(os.Stdout)
	if err := errors.Join(out.Encode(rec), out.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed: %s\n", res.Failed, res.Attempted, strings.Join(rec.Failures, "; "))
		os.Exit(1)
	}
}
