package benchlab

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/contract"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// chaosSeeds is the fixed seed matrix.
var chaosSeeds = []uint64{1, 7, 42, 1337, 0xDEADBEEF}

func seedsForMode(t *testing.T) []uint64 {
	if testing.Short() {
		return chaosSeeds[:2]
	}
	return chaosSeeds
}

// TestChaosInvariants: every seed's full fault load leaves the trust
// anchor standing (RunChaos fails internally otherwise).
func TestChaosInvariants(t *testing.T) {
	for _, seed := range seedsForMode(t) {
		seed := seed
		t.Run(fmt0x(seed), func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.TrustedChecks == 0 {
				t.Error("no integrity checks ran")
			}
			if len(res.InjEvents) == 0 {
				t.Error("no faults injected")
			}
			if res.RogueRestarts == 0 {
				t.Error("rogue never restarted before quarantine")
			}
			t.Logf("seed %#x: %d cycles, %d injections, %d sup events, conn faults %v, attest attempts restart=%d victim=%d",
				seed, res.Cycles, len(res.InjEvents), len(res.SupEvents),
				res.ConnFaults, res.RestartAttempts, res.VictimAttempts)
		})
	}
}

// chaosRow is seed's full-fault chaos run as a contract row. Its
// transcript is every field of the result but the live Obs handle,
// which only an observed run fills in; an "observe" axis turns the
// observability layer on. keep, when non-nil, receives
// every result.
func chaosRow(seed uint64, keep func(*ChaosResult), axes ...contract.Axis) contract.Row {
	return contract.Row{Name: "chaos-" + fmt0x(seed), Axes: axes, Produce: func(t *testing.T, at contract.Point) []byte {
		res, err := RunChaos(ChaosConfig{Seed: seed, Observe: at.On("observe")})
		if err != nil {
			t.Fatal(err)
		}
		if keep != nil {
			keep(res)
		}
		transcript := *res
		transcript.Obs = nil
		return fmt.Appendf(nil, "%+v\n", transcript)
	}}
}

// TestChaosDeterminism: identical seeds produce identical transcripts —
// cycle counts included. This is the replayability guarantee that makes
// a chaos failure debuggable.
func TestChaosDeterminism(t *testing.T) {
	for _, seed := range seedsForMode(t)[:2] {
		t.Run(fmt0x(seed), func(t *testing.T) { contract.Check(t, chaosRow(seed, nil)) })
	}
}

// TestChaosSeedsDiffer: different seeds genuinely explore different
// fault sequences.
func TestChaosSeedsDiffer(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.InjEvents, b.InjEvents) {
		t.Error("different seeds produced identical injection logs")
	}
}

// TestChaosClassMasks: each class can run alone; invariants hold under
// reduced fault loads too.
func TestChaosClassMasks(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in long mode only")
	}
	masks := []faultinject.Class{
		faultinject.BitFlips | faultinject.RogueTasks,
		faultinject.IRQStorms | faultinject.RogueTasks,
		faultinject.RogueTasks | faultinject.ConnFaults,
		faultinject.BitFlips | faultinject.IRQStorms, // no rogue: liveness only
	}
	for _, m := range masks {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			if _, err := RunChaos(ChaosConfig{Seed: 42, Classes: m}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func fmt0x(v uint64) string { return fmt.Sprintf("%#x", v) }

// TestChaosObserved: turning the observability layer on must not
// perturb the chaos transcript — same seed, same cycles, same logs —
// while the run additionally yields a valid trace and scrapeable
// metrics, whose attestation round-trip histogram the server's wire
// events feed.
func TestChaosObserved(t *testing.T) {
	var observed *ChaosResult
	keep := func(r *ChaosResult) {
		if r.Obs != nil {
			observed = r
		}
	}
	contract.Check(t, chaosRow(7, keep, contract.Engine, contract.Toggle("observe")))

	if observed == nil {
		t.Fatal("no observability handle returned")
	}
	var tr bytes.Buffer
	if err := observed.Obs.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadChromeTrace(bytes.NewReader(tr.Bytes()))
	if err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Error("Chrome trace is empty")
	}
	var pm bytes.Buffer
	if err := observed.Obs.WriteMetrics(&pm); err != nil {
		t.Fatal(err)
	}
	scrape, err := trace.ScrapePrometheus(bytes.NewReader(pm.Bytes()))
	if err != nil {
		t.Fatalf("metrics do not scrape: %v", err)
	}
	samples := scrape.Samples
	if samples["tytan_sup_faults"] == 0 {
		t.Error("supervisor fault counter zero in a chaos run")
	}
	if observed.RetryCalls == 0 || observed.RetryAttempts < observed.RetryCalls {
		t.Errorf("retry stats implausible: calls=%d attempts=%d",
			observed.RetryCalls, observed.RetryAttempts)
	}
	if samples["tytan_attest_rtt_cycles_count"] == 0 {
		t.Error("attestation round-trip histogram is empty")
	}
}
