// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark drives the same workload the paper
// describes and reports the headline quantity as a custom metric in
// *cycles* (the platform's deterministic clock), so `go test -bench=.`
// reproduces the evaluation end to end:
//
//	BenchmarkTable1UseCase        Figure 2 + Table 1 (cruise control)
//	BenchmarkTable2ContextSave    Table 2
//	BenchmarkTable3ContextRestore Table 3
//	BenchmarkTable4TaskCreation   Table 4
//	BenchmarkTable5Relocation     Table 5
//	BenchmarkTable6EAMPUConfig    Table 6
//	BenchmarkTable7Measurement    Table 7
//	BenchmarkTable8Memory         Table 8
//	BenchmarkIPCRoundTrip         §6 "Secure IPC"
//	BenchmarkAblation*            design-choice ablations (DESIGN.md)
//
// ns/op measures host simulation speed and is not a paper quantity; the
// cycles metrics are.
package repro_test

import (
	"testing"

	"repro/internal/benchlab"
	"repro/internal/firmware"
)

func BenchmarkTable1UseCase(b *testing.B) {
	var last benchlab.UseCaseResult
	var insns uint64
	for i := 0; i < b.N; i++ {
		r, err := benchlab.RunUseCase(false)
		if err != nil {
			b.Fatal(err)
		}
		last = r
		insns += r.Instructions
	}
	b.ReportMetric(last.RateT0[1]*1000, "t0-Hz-while-loading")
	b.ReportMetric(last.RateT1[1]*1000, "t1-Hz-while-loading")
	b.ReportMetric(last.RateT2[2]*1000, "t2-Hz-after-loading")
	b.ReportMetric(float64(last.LoadWorkCycles), "load-cycles")
	b.ReportMetric(last.LoadMillis(), "load-ms")
	// Host simulation throughput: guest instructions retired per host
	// second, in millions, on the default (production) engine. Not a
	// paper quantity and a single-run figure; the repeatable engine
	// timing is `bash bench/run.sh --workload usecase|kernel`.
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insns)/s/1e6, "host-mips")
	}
}

func BenchmarkTable2ContextSave(b *testing.B) {
	var last benchlab.ContextSwitchResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureContextSwitch()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.SaveTyTAN), "save-cycles")
	b.ReportMetric(float64(last.SaveBaseline), "baseline-save-cycles")
	b.ReportMetric(float64(last.SaveTyTAN-last.SaveBaseline), "overhead-cycles")
}

func BenchmarkTable3ContextRestore(b *testing.B) {
	var last benchlab.ContextSwitchResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureContextSwitch()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.RestoreTyTAN), "restore-cycles")
	b.ReportMetric(float64(last.RestoreBaseline), "baseline-restore-cycles")
	b.ReportMetric(float64(last.RestoreTyTAN-last.RestoreBaseline), "overhead-cycles")
}

func BenchmarkTable4TaskCreation(b *testing.B) {
	var last benchlab.CreationResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureCreation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Secure.Total()), "secure-cycles")
	b.ReportMetric(float64(last.Normal.Total()), "normal-cycles")
	b.ReportMetric(float64(last.Baseline.Total()), "baseline-cycles")
	b.ReportMetric(float64(last.Secure.Measure), "rtm-cycles")
	b.ReportMetric(float64(last.Secure.Reloc), "reloc-cycles")
	b.ReportMetric(float64(last.Secure.Protect), "eampu-cycles")
}

func BenchmarkTable5Relocation(b *testing.B) {
	var last []benchlab.RelocationPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureRelocation()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Avg), "avg-cycles-n"+itoa(pt.N))
	}
}

func BenchmarkTable6EAMPUConfig(b *testing.B) {
	var last []benchlab.EAMPUPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureEAMPUConfig()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Cost.Total()), "cycles-slot"+itoa(pt.Position))
	}
}

func BenchmarkTable7Measurement(b *testing.B) {
	var blocks, addrs []benchlab.MeasurementPoint
	for i := 0; i < b.N; i++ {
		bb, aa, err := benchlab.MeasureMeasurement()
		if err != nil {
			b.Fatal(err)
		}
		blocks, addrs = bb, aa
	}
	for _, pt := range blocks {
		b.ReportMetric(float64(pt.Cost), "cycles-blocks"+itoa(pt.Blocks))
	}
	for _, pt := range addrs {
		b.ReportMetric(float64(pt.Cost), "cycles-addrs"+itoa(pt.Addrs))
	}
}

func BenchmarkTable8Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchlab.Table8Memory()
	}
	b.ReportMetric(float64(firmware.BaselineBytes()), "freertos-bytes")
	b.ReportMetric(float64(firmware.TyTANBytes()), "tytan-bytes")
	b.ReportMetric(firmware.OverheadPercent(), "overhead-pct")
}

func BenchmarkIPCRoundTrip(b *testing.B) {
	var last benchlab.IPCResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.MeasureIPC()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Proxy), "proxy-cycles")
	b.ReportMetric(float64(last.Entry), "entry-cycles")
	b.ReportMetric(float64(last.Overall), "overall-cycles")
}

func BenchmarkAblationAtomicMeasurement(b *testing.B) {
	var atomic benchlab.UseCaseResult
	for i := 0; i < b.N; i++ {
		r, err := benchlab.RunUseCase(true)
		if err != nil {
			b.Fatal(err)
		}
		atomic = r
	}
	b.ReportMetric(float64(atomic.MaxGapDuringLoad), "worst-gap-cycles")
	b.ReportMetric(float64(atomic.Missed), "missed-deadlines")
}

func BenchmarkAblationHardwareContextSave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationHardwareContextSave(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStaticMPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationStaticMPU(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIdentityWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.AblationIdentityWidth(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkSupplementalCreationScaling(b *testing.B) {
	var last []benchlab.ScalingPoint
	for i := 0; i < b.N; i++ {
		pts, err := benchlab.MeasureCreationScaling()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, pt := range last {
		b.ReportMetric(float64(pt.Secure), "secure-cycles-"+itoa(pt.Bytes>>10)+"KiB")
	}
}

func BenchmarkInterruptLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchlab.TableInterruptLatency(); err != nil {
			b.Fatal(err)
		}
	}
}
