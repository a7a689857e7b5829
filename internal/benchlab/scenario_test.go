package benchlab

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/contract"
)

// TestScenarioCheck is the update-scenario gate: the full matrix
// passes, and its text report — cells executing in parallel — is
// byte-identical across engines and repeat runs. Short mode runs the
// reduced seed set, a row of its own.
func TestScenarioCheck(t *testing.T) {
	short := testing.Short()
	name := "scenario-matrix"
	if short {
		name += "-short"
	}
	contract.Check(t, contract.Row{Name: name, Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, at contract.Point) []byte {
		rep := RunScenarioMatrix(short)
		var buf bytes.Buffer
		if err := rep.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			t.Fatalf("scenario matrix failed on %v:\n%s", at, buf.String())
		}
		return buf.Bytes()
	}})
}

// TestScenarioMatrixShape: every declared scenario appears once per
// seed, in declaration order, and the report names each cell.
func TestScenarioMatrixShape(t *testing.T) {
	scens := UpdateScenarios()
	seeds := ScenarioSeeds(true)
	rep := RunScenarioMatrix(true)
	if want := len(scens) * len(seeds); len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	for si, s := range scens {
		for ki, seed := range seeds {
			c := rep.Cells[si*len(seeds)+ki]
			if c.Scenario != s.Name || c.Seed != seed {
				t.Errorf("cell %d = (%s, %#x), want (%s, %#x)",
					si*len(seeds)+ki, c.Scenario, c.Seed, s.Name, seed)
			}
			if len(c.SLO) == 0 {
				t.Errorf("cell %s/%#x has no SLO verdicts", c.Scenario, c.Seed)
			}
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		if !strings.Contains(buf.String(), s.Name) {
			t.Errorf("report missing scenario %q", s.Name)
		}
	}
}
