package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// specFile is BENCHMARK.json as the smoke test reads it.
type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload untraced and traced on a tiny op budget
// and checks that each run is correct and emits exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, runner %v", names, ours)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 1, trace: traced,
				duration: time.Nanosecond, setups: 1, benchtime: "2x",
			}
			if traced {
				cfg.spansPath = filepath.Join(t.TempDir(), "spans.json")
			}
			rec, res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, rec.Failures)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
			if traced {
				b, err := os.ReadFile(cfg.spansPath)
				if err != nil || !json.Valid(b) {
					t.Errorf("%s: spans file: %v", w.name, err)
				}
			}
			golden := map[string]float64{
				"usecase": float64(useCaseGolden.TotalCycles),
				"kernel":  float64(kernelGolden.Cycles),
			}[w.name]
			if !traced && golden != 0 && rec.Guest["guest_cycles_per_op"] != golden {
				t.Errorf("%s: guest cycles per op %v, golden %v", w.name, rec.Guest["guest_cycles_per_op"], golden)
			}
		}
	}
}

// TestGuestGoldens pins the goldens a run is checked against to the
// cycle counts the reproduction publishes: Table 1's run and load
// cycles and the kernel's cycles and instructions per pass.
func TestGuestGoldens(t *testing.T) {
	if useCaseGolden.TotalCycles != 5_947_798 || useCaseGolden.LoadWorkCycles != 1_311_021 {
		t.Errorf("usecase golden %+v", useCaseGolden)
	}
	if kernelGolden.Cycles != 580_005 || kernelGolden.Instructions != 320_004 || kernelGolden.Violations != 0 {
		t.Errorf("kernel golden %+v", kernelGolden)
	}
}

// TestScalingKeepsSlowdowns checks that scaling to the reference does
// not hide a slower program. On the kernel pass it injects two known
// costs: a second pass in every op, which must at least double
// op_us_p50 and halve ops_per_s, short of their bounds, and busy
// goroutines in the same process, which take CPU from the ops but not
// from the reference (timed in thread CPU time), so ops_per_s must
// drop.
func TestScalingKeepsSlowdowns(t *testing.T) {
	const duration = 1200 * time.Millisecond
	measure := func(passes, spinners int) map[string]float64 {
		t.Helper()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < spinners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		defer wg.Wait()
		defer close(stop)

		r := newRunState(config{duration: duration, setups: 1})
		m, err := setupKernel(r)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		r.loop(func(w *window) error {
			start := time.Now()
			for i := 0; i < passes; i++ {
				d, err := runKernelPass(m)
				if err == nil {
					err = checkKernel(d)
				}
				if err != nil {
					return err
				}
			}
			d := time.Since(start)
			w.lat = append(w.lat, usOf(d))
			w.busy += d
			w.ops++
			return nil
		})
		if r.failed > 0 {
			t.Fatal(r.failures)
		}
		r.summarizeWindows()
		return r.metrics
	}
	base := measure(1, 0)
	double := measure(2, 0)
	busy := measure(1, runtime.GOMAXPROCS(0))
	t.Logf("base %v, two passes per op %v, busy goroutines %v", base, double, busy)

	const bound = 0.15
	if got := double["op_us_p50"] / base["op_us_p50"]; got < 2*(1-bound) {
		t.Errorf("two passes per op: op_us_p50 ×%.2f, want at least ×2 less %.0f%%", got, bound*100)
	}
	if got := double["ops_per_s"] / base["ops_per_s"]; got > 0.5*(1+bound) {
		t.Errorf("two passes per op: ops_per_s ×%.2f, want at most ×0.5 plus %.0f%%", got, bound*100)
	}
	if got := busy["ops_per_s"] / base["ops_per_s"]; got > 1-bound {
		t.Errorf("busy goroutines: ops_per_s ×%.2f, want a drop of more than %.0f%%", got, bound*100)
	}
}

// TestCompare checks -compare end to end on two small record files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS ...float64) string {
		var b strings.Builder
		for i, v := range opsPerS {
			rec := record{
				Workload: "kernel", Seed: uint64(i + 1),
				Metrics: map[string]metric{
					"setup_s": {0.015, "s"}, "op_us_p50": {3000, "us"},
					"op_us_p90": {3400, "us"}, "ops_per_s": {v, "1/s"},
				},
				Guest: map[string]float64{"guest_cycles_per_op": 580_005},
			}
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.jsonl", 320, 322, 318, 321)
	slower := write("new.jsonl", 250, 252, 251, 249)
	var out strings.Builder
	if err := runCompare(&out, old, slower); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "kernel" {
			rows[f[1]] = f[len(f)-1]
		}
	}
	for metric, want := range map[string]string{"ops_per_s": "worse", "op_us_p50": "unchanged", "failed_ops": "unchanged", "guest": "unchanged"} {
		if rows[metric] != want {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, rows[metric], want, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spreadOld, spreadNew float64
		allBetter                   bool
		want                        string
	}{
		{0.01, 0.02, 0.02, false, "unchanged"},
		{0.12, 0.02, 0.02, false, "worse"},
		{-0.05, 0.02, 0.02, true, "improved"},
		{-0.01, 0.02, 0.02, false, "unchanged"},
		{0.01, 0.2, 0.02, false, "unresolved"},
		{-0.3, 0.2, 0.02, true, "improved"},
	} {
		if got := verdict(c.worse, 0.1, c.spreadOld, c.spreadNew, c.allBetter); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c, got, c.want)
		}
	}
}

// BenchmarkLayers runs the per-layer micro-benchmarks under go test:
//
//	go test -run '^$' -bench Layers -benchmem
func BenchmarkLayers(b *testing.B) {
	for _, l := range layerBenches {
		b.Run(l.name, l.fn)
	}
}
