package fleet

import (
	"slices"
	"testing"

	"repro/internal/analyze"
)

// TestScanMatchesAnalyze: the samples one scan of a device stream reads
// off its closing events through analyze.Sample equal the span engine's
// attest and session durations for that stream, over seeds whose runs
// hold passed, denied and refused sessions. Pooled, they are the
// report's figures.
func TestScanMatchesAnalyze(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		cfg := Config{Devices: 12, Rounds: 5, Seed: seed, Variants: 2, Faulty: 2, MaxFailures: 2, CollectEvents: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Rejected == 0 || res.Report.Refused == 0 {
			t.Fatalf("seed %d: %d rejected, %d refused; want both", seed, res.Report.Rejected, res.Report.Refused)
		}
		streams, _ := cutStreams(t, cfg, res.Events)
		var rtt, e2e []uint64
		for _, d := range streams {
			r := deviceResult{events: d.Events}
			r.scan(false)
			slices.Sort(r.durations)
			slices.Sort(r.e2e)
			a := analyze.Analyze(d.Events)
			if want := a.Durations(analyze.ClassAttest); !slices.Equal(r.durations, want) {
				t.Errorf("seed %d %s: rtt samples %v, Analyze %v", seed, d.Name, r.durations, want)
			}
			if want := a.Durations(analyze.ClassSession); !slices.Equal(r.e2e, want) {
				t.Errorf("seed %d %s: e2e samples %v, Analyze %v", seed, d.Name, r.e2e, want)
			}
			rtt = append(rtt, r.durations...)
			e2e = append(e2e, r.e2e...)
		}
		slices.Sort(rtt)
		slices.Sort(e2e)
		if got := analyze.Summarize(rtt); got != res.Report.AttestRTT {
			t.Errorf("seed %d: pooled rtt %+v, report %+v", seed, got, res.Report.AttestRTT)
		}
		if got := analyze.Summarize(e2e); got != res.Report.SessionE2E {
			t.Errorf("seed %d: pooled e2e %+v, report %+v", seed, got, res.Report.SessionE2E)
		}
	}
}
