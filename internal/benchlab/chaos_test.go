package benchlab

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// chaosSeeds is the chaos seed matrix: the scenario matrix's seeds.
func chaosSeeds() []uint64 { return ScenarioSeeds(testing.Short()) }

func fmt0x(v uint64) string { return fmt.Sprintf("%#x", v) }

// passChaosCell runs the chaos cell for seed under classes and fails t
// unless its invariants and SLO hold.
func passChaosCell(t *testing.T, seed uint64, classes faultinject.Class) ScenarioCell {
	t.Helper()
	s := Scenario{Name: "chaos", SLO: chaosSLO, Run: func(e *ScenarioEnv) error { return runChaos(e, classes) }}
	c := runScenarioCell(s, seed)
	if !c.Pass {
		t.Fatalf("seed %#x: error %q, SLO %+v", seed, c.Err, c.SLO)
	}
	return c
}

// injections is the cell's injection log, one note per injected fault.
func injections(c ScenarioCell) []string {
	var out []string
	for _, n := range c.Notes {
		if strings.HasPrefix(n, "inject ") {
			out = append(out, n)
		}
	}
	return out
}

// chaosTranscript runs the full-fault chaos cell in env and renders its
// cycle count and notes.
func chaosTranscript(t *testing.T, env *ScenarioEnv) []byte {
	t.Helper()
	err := runChaos(env, faultinject.AllClasses)
	if env.P != nil {
		defer env.P.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "cycles=%d\n%s\n", env.P.Cycles(), strings.Join(env.notes, "\n"))
}

// chaosRow is seed's full-fault chaos cell as a contract row: its cycle
// count and notes.
func chaosRow(seed uint64, axes ...contract.Axis) contract.Row {
	return contract.Row{Name: "chaos-" + fmt0x(seed), Axes: axes, Produce: func(t *testing.T, _ contract.Point) []byte {
		return chaosTranscript(t, &ScenarioEnv{Seed: seed})
	}}
}

// TestChaosInvariants: every seed's full fault load leaves the trust
// anchor standing (runChaos fails internally otherwise), and the
// transcript shows faults injected, integrity checked and the rogue
// restarted.
func TestChaosInvariants(t *testing.T) {
	for _, seed := range chaosSeeds() {
		t.Run(fmt0x(seed), func(t *testing.T) {
			c := passChaosCell(t, seed, faultinject.AllClasses)
			if len(injections(c)) == 0 {
				t.Error("no faults injected")
			}
			var restart, victim, rogueRestarts, trustedChecks int
			i := slices.IndexFunc(c.Notes, func(n string) bool { return strings.HasPrefix(n, "attempts ") })
			if i < 0 {
				t.Fatalf("no attempts note in %q", c.Notes)
			}
			if _, err := fmt.Sscanf(c.Notes[i], "attempts restart=%d victim=%d; rogue restarts %d; trusted checks %d",
				&restart, &victim, &rogueRestarts, &trustedChecks); err != nil {
				t.Fatalf("note %q: %v", c.Notes[i], err)
			}
			if trustedChecks == 0 {
				t.Error("no integrity checks ran")
			}
			if rogueRestarts == 0 {
				t.Error("rogue never restarted before quarantine")
			}
		})
	}
}

// TestChaosDeterminism: identical seeds produce identical transcripts —
// cycle counts included. This is the replayability guarantee that makes
// a chaos failure debuggable.
func TestChaosDeterminism(t *testing.T) {
	for _, seed := range chaosSeeds()[:2] {
		t.Run(fmt0x(seed), func(t *testing.T) { contract.Check(t, chaosRow(seed)) })
	}
}

// TestChaosSeedsDiffer: different seeds genuinely explore different
// fault sequences.
func TestChaosSeedsDiffer(t *testing.T) {
	a := passChaosCell(t, 1, faultinject.AllClasses)
	b := passChaosCell(t, 2, faultinject.AllClasses)
	if slices.Equal(injections(a), injections(b)) {
		t.Error("different seeds produced identical injection logs")
	}
}

// TestChaosClassMasks: each class can run alone; the chaos invariants
// and SLO hold under reduced fault loads too.
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
		t.Run(m.String(), func(t *testing.T) { passChaosCell(t, 42, m) })
	}
}

// TestChaosObserved: turning the observability layer on must not
// perturb the chaos cell — same seed, same cycles, same notes — while
// the run additionally yields a valid trace and scrapeable metrics,
// whose attestation round-trip histogram the server's wire events
// feed.
func TestChaosObserved(t *testing.T) {
	var observed *ScenarioEnv
	contract.Check(t, contract.Row{
		Name: chaosRow(7).Name,
		Axes: []contract.Axis{contract.Engine, contract.Toggle("observe")},
		Produce: func(t *testing.T, at contract.Point) []byte {
			env := &ScenarioEnv{Seed: 7, unobserved: !at.On("observe")}
			out := chaosTranscript(t, env)
			if env.Obs != nil {
				observed = env
			}
			return out
		},
	})

	if observed == nil {
		t.Fatal("no observability handle")
	}
	var tr bytes.Buffer
	if err := observed.Obs.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadTraceEvents(bytes.NewReader(tr.Bytes()))
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
	samples := metricSamples(pm.Bytes())
	if samples["tytan_sup_faults"] == 0 {
		t.Error("supervisor fault counter zero in a chaos run")
	}
	var calls, attempts, refusals int
	for _, n := range observed.notes {
		if strings.HasPrefix(n, "retries ") {
			if _, err := fmt.Sscanf(n, "retries calls=%d attempts=%d refusals=%d", &calls, &attempts, &refusals); err != nil {
				t.Fatalf("note %q: %v", n, err)
			}
		}
	}
	if calls == 0 || attempts < calls {
		t.Errorf("retry stats implausible: calls=%d attempts=%d", calls, attempts)
	}
	if samples["tytan_attest_rtt_cycles_count"] == 0 {
		t.Error("attestation round-trip histogram is empty")
	}
}

// metricSamples maps each sample line of a Prometheus text exposition,
// name and labels, to its value.
func metricSamples(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]], _ = strconv.ParseFloat(line[i+1:], 64)
		}
	}
	return out
}
