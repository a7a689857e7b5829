package benchlab

import (
	"math"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/machine"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// within checks got against want with a relative tolerance.
func within(t *testing.T, name string, got, want uint64, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
		return
	}
	dev := math.Abs(float64(got)-float64(want)) / float64(want)
	if dev > tol {
		t.Errorf("%s = %d, want %d (±%.0f%%), deviation %.1f%%", name, got, want, tol*100, dev*100)
	}
}

func TestGenImage(t *testing.T) {
	im := GenImage("g", 512, []telf.RelocKind{telf.RelWord, telf.RelImm32})
	if im.MeasuredSize() != 512 {
		t.Errorf("measured = %d", im.MeasuredSize())
	}
	if len(im.Relocs) != 2 {
		t.Errorf("relocs = %d", len(im.Relocs))
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalCreationImage(t *testing.T) {
	im := CanonicalCreationImage()
	if im.MeasuredSize() != 3962 {
		t.Errorf("measured = %d, want 3962", im.MeasuredSize())
	}
	if len(im.Relocs) != 9 {
		t.Errorf("relocs = %d, want 9", len(im.Relocs))
	}
}

func TestTable2And3MatchPaperExactly(t *testing.T) {
	r, err := MeasureContextSwitch()
	if err != nil {
		t.Fatal(err)
	}
	// The interrupt path is calibrated to land exactly on Tables 2/3.
	if r.SaveTyTAN != 95 {
		t.Errorf("secure save = %d, want 95", r.SaveTyTAN)
	}
	if r.SaveBaseline != 38 {
		t.Errorf("baseline save = %d, want 38", r.SaveBaseline)
	}
	if r.RestoreTyTAN != 384 {
		t.Errorf("secure restore = %d, want 384", r.RestoreTyTAN)
	}
	if r.RestoreBaseline != 254 {
		t.Errorf("baseline restore = %d, want 254", r.RestoreBaseline)
	}
}

func TestTable4CreationShape(t *testing.T) {
	r, err := MeasureCreation()
	if err != nil {
		t.Fatal(err)
	}
	// Who wins and by what factor: secure creation is ≈3x normal, and
	// the gap is dominated by the RTM measurement.
	sec, norm, base := r.Secure.Total(), r.Normal.Total(), r.Baseline.Total()
	if sec <= norm || norm <= base {
		t.Fatalf("ordering broken: secure %d, normal %d, baseline %d", sec, norm, base)
	}
	factor := float64(sec) / float64(norm)
	if factor < 1.8 || factor > 4.0 {
		t.Errorf("secure/normal factor = %.2f, paper ≈3.08", factor)
	}
	if r.Secure.Measure < (sec-norm)*8/10 {
		t.Errorf("RTM (%d) does not dominate the secure overhead (%d)", r.Secure.Measure, sec-norm)
	}
	// Normal-vs-baseline overhead is small (paper: 3,917 of 208,808).
	overheadPct := float64(norm-base) / float64(base) * 100
	if overheadPct > 5 {
		t.Errorf("normal overhead = %.1f%%, paper ≈1.9%%", overheadPct)
	}
	// EA-MPU column: ours includes the full Table 6 path; the paper's
	// 225 counts only the rule write.
	if r.Secure.Protect < machine.CostWriteRule {
		t.Errorf("EA-MPU phase = %d", r.Secure.Protect)
	}
	// Normal creation lands near the paper's 208,808.
	within(t, "normal overall", norm, 208_808, 0.05)
}

func TestTable5RelocationShape(t *testing.T) {
	points, err := MeasureRelocation()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].N != 0 || points[0].Min != 37 {
		t.Errorf("n=0 row = %+v, want exactly 37 (paper)", points[0])
	}
	for _, pt := range points {
		within(t, "reloc min", pt.Min, paper.reloc5Min[pt.N], 0.05)
		within(t, "reloc avg", pt.Avg, paper.reloc5Avg[pt.N], 0.05)
		if pt.Min > pt.Avg {
			t.Errorf("n=%d: min %d > avg %d", pt.N, pt.Min, pt.Avg)
		}
	}
	// Linearity: cost(4) ≈ 2·cost(2) ≈ 4·cost(1) (minus the fixed scan).
	fixed := points[0].Min
	per1 := points[1].Min - fixed
	per4 := (points[3].Min - fixed) / 4
	if math.Abs(float64(per1)-float64(per4))/float64(per1) > 0.02 {
		t.Errorf("relocation not linear: per-addr %d at n=1, %d at n=4", per1, per4)
	}
}

func TestTable6EAMPUMatchesPaperExactly(t *testing.T) {
	points, err := MeasureEAMPUConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if got, want := pt.Cost.Total(), paper.eampu6Overall[pt.Position]; got != want {
			t.Errorf("position %d: overall = %d, want %d", pt.Position, got, want)
		}
	}
	if points[0].Cost.PolicyCheck != 824 || points[0].Cost.WriteRule != 225 {
		t.Errorf("component costs = %+v", points[0].Cost)
	}
}

func TestTable7MeasurementShape(t *testing.T) {
	byBlocks, byAddrs, err := MeasureMeasurement()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range byBlocks {
		within(t, "measure blocks", pt.Cost, paper.meas7Blocks[pt.Blocks], 0.03)
	}
	if byAddrs[0].Cost != 114 {
		t.Errorf("0 addresses = %d, want exactly 114", byAddrs[0].Cost)
	}
	within(t, "measure 4 addrs", byAddrs[3].Cost, paper.meas7Addrs[4], 0.02)
	// Per-block linearity.
	per2 := byBlocks[1].Cost - byBlocks[0].Cost
	per8 := (byBlocks[3].Cost - byBlocks[2].Cost) / 4
	if per2 != per8 {
		t.Errorf("per-block cost drifts: %d vs %d", per2, per8)
	}
}

func TestTable8Exact(t *testing.T) {
	tb := Table8Memory()
	s := tb.String()
	for _, want := range []string{"215,617", "249,943", "15.92"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 8 missing %q:\n%s", want, s)
		}
	}
}

func TestIPCMatchesPaperExactly(t *testing.T) {
	r, err := MeasureIPC()
	if err != nil {
		t.Fatal(err)
	}
	if r.Proxy != 1208 {
		t.Errorf("proxy = %d, want 1208", r.Proxy)
	}
	if r.Overall != 1324 {
		t.Errorf("overall = %d, want 1324", r.Overall)
	}
}

func TestTable1UseCase(t *testing.T) {
	r, err := RunUseCase(false)
	if err != nil {
		t.Fatal(err)
	}
	// Every populated cell of Table 1 is ≈1.5 kHz.
	check := func(name string, v float64) {
		t.Helper()
		if v < 1.40 || v > 1.60 {
			t.Errorf("%s = %.3f kHz, want ≈1.5", name, v)
		}
	}
	for i := 0; i < 3; i++ {
		check("t0", r.RateT0[i])
		check("t1", r.RateT1[i])
	}
	check("t2 after load", r.RateT2[2])
	if r.RateT2[0] != 0 {
		t.Errorf("t2 active before loading: %.3f kHz", r.RateT2[0])
	}
	// The load spans multiple scheduling periods (the point of the
	// experiment) and is in the neighbourhood of the paper's 27.8 ms.
	if r.LoadWorkCycles < 10*useCasePeriod {
		t.Errorf("load work = %d cycles, too small to be meaningful", r.LoadWorkCycles)
	}
	if ms := r.LoadMillis(); ms < 20 || ms > 40 {
		t.Errorf("load work = %.1f ms, paper 27.8 ms", ms)
	}
	if r.Missed != 0 {
		t.Errorf("t0 missed %d activations under interruptible loading", r.Missed)
	}
	if r.MaxGapDuringLoad > 2*useCasePeriod {
		t.Errorf("worst t0 gap = %d (> 2 periods)", r.MaxGapDuringLoad)
	}
}

func TestAblationAtomicBreaksDeadlines(t *testing.T) {
	interruptible, err := RunUseCase(false)
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := RunUseCase(true)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.MaxGapDuringLoad <= interruptible.MaxGapDuringLoad {
		t.Errorf("atomic loading did not increase jitter: %d vs %d",
			atomic.MaxGapDuringLoad, interruptible.MaxGapDuringLoad)
	}
	// The atomic load blocks t0 for the whole load: worst gap must
	// exceed many periods.
	if atomic.MaxGapDuringLoad < 5*useCasePeriod {
		t.Errorf("atomic worst gap = %d, expected a multi-period stall", atomic.MaxGapDuringLoad)
	}
	if atomic.Missed == 0 {
		t.Error("atomic loading missed no deadlines")
	}
}

// TestAllTablesRender pins the text of every paper table (Tables 1-8,
// IPC and the supplementals) on both engines: the `paper-tables` row.
func TestAllTablesRender(t *testing.T) {
	contract.Check(t, contract.Row{Name: "paper-tables", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
		tables, err := AllTables()
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 12 {
			t.Fatalf("tables = %d, want 12 (Tables 1-8 + IPC + supplementals)", len(tables))
		}
		var out strings.Builder
		for _, tb := range tables {
			s := tb.String()
			if !strings.Contains(s, "==") || len(tb.Rows) == 0 {
				t.Errorf("table %q renders badly", tb.Title)
			}
			out.WriteString(s)
		}
		return []byte(out.String())
	}})
}

// TestAblationsRender pins the text of every ablation table on both
// engines: the `ablations` row.
func TestAblationsRender(t *testing.T) {
	contract.Check(t, contract.Row{Name: "ablations", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
		tables, err := AllAblations()
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 9 {
			t.Fatalf("ablations = %d, want 9", len(tables))
		}
		var out strings.Builder
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("ablation %q has no rows", tb.Title)
			}
			out.WriteString(tb.String())
		}
		return []byte(out.String())
	}})
}

func TestTableFormatting(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow(1234567, "x")
	tb.Note("n %d", 1)
	s := tb.String()
	if !strings.Contains(s, "1,234,567") {
		t.Errorf("thousands separator missing: %q", s)
	}
	if !strings.Contains(s, "note: n 1") {
		t.Errorf("note missing: %q", s)
	}
	if commas("-1234") != "-1,234" {
		t.Errorf("negative commas: %q", commas("-1234"))
	}
	if commas("12ab") != "12ab" {
		t.Errorf("non-numeric commas: %q", commas("12ab"))
	}
}

func TestInterruptLatencyBounded(t *testing.T) {
	tb, err := TableInterruptLatency()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// Keep a compile-time dependency on trusted so the helper types stay in
// sync (ConfigCost fields are asserted above).
var _ trusted.ConfigCost

// TestDeterminism: the entire use-case scenario is bit-reproducible —
// identical rates, costs and cycle counts across runs.
func TestDeterminism(t *testing.T) { contract.Check(t, useCaseRow(false)) }

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}}
	tb.AddRow(1, "x|y")
	tb.Note("hello")
	md := tb.Markdown()
	for _, want := range []string{"### T", "| a | b |", "| --- | --- |", `x\|y`, "*hello*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestCreationScalingLinear(t *testing.T) {
	points, err := MeasureCreationScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Secure <= pt.Normal {
			t.Errorf("%d B: secure %d <= normal %d", pt.Bytes, pt.Secure, pt.Normal)
		}
	}
	// Linearity: doubling the size roughly doubles the size-dependent
	// part. Compare marginal costs of consecutive doublings.
	d1 := points[1].Secure - points[0].Secure       // 1K -> 2K
	d3 := (points[4].Secure - points[3].Secure) / 8 // 8K -> 16K per KiB... (8K increments)
	_ = d3
	d2 := (points[2].Secure - points[1].Secure) / 2
	ratio := float64(d2) / float64(d1)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("secure creation not linear: marginal %d vs %d", d1, d2)
	}
	// The ratio converges: 16K ratio below 1K ratio + 20%.
	r0 := float64(points[0].Secure) / float64(points[0].Normal)
	r4 := float64(points[4].Secure) / float64(points[4].Normal)
	if r4 > r0*1.2 {
		t.Errorf("ratio diverges: %.2f -> %.2f", r0, r4)
	}
}

func TestIPCScalingLinear(t *testing.T) {
	points, err := MeasureIPCScaling()
	if err != nil {
		t.Fatal(err)
	}
	// 2 tasks is the paper's benchmark point.
	if points[0][1] != 1208 {
		t.Errorf("2-task proxy cost = %d, want 1208", points[0][1])
	}
	// Marginal cost per extra task = 2 lookups.
	per := (points[2][1] - points[1][1]) / (points[2][0] - points[1][0])
	if per != 2*machine.CostIPCLookupPerTask {
		t.Errorf("marginal = %d, want %d", per, 2*machine.CostIPCLookupPerTask)
	}
	// Strictly increasing.
	for i := 1; i < len(points); i++ {
		if points[i][1] <= points[i-1][1] {
			t.Errorf("cost not increasing at %d tasks", points[i][0])
		}
	}
}
