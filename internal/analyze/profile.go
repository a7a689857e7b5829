package analyze

import (
	"fmt"
	"sort"
	"strings"
)

// Profile attributes simulated cycles: per task (the task activation
// windows — every cycle between a dispatch and the next dispatch
// belongs to the dispatched task) and per dynamic-load phase (from the
// breakdown attributes carried on load-phase completion events).
type Profile struct {
	// TotalCycles is the window the profile covers.
	TotalCycles uint64
	// Tasks holds per-task attribution, largest share first.
	Tasks []TaskCycles
	// LoadPhases holds per-phase loader attribution, pipeline order.
	LoadPhases []PhaseCycles
}

// TaskCycles is one task's share of the cycle budget.
type TaskCycles struct {
	Name       string
	Cycles     uint64
	Dispatches int
}

// PhaseCycles is one load phase's share of loader work.
type PhaseCycles struct {
	Phase  string
	Cycles uint64
}

// loadBreakdownKeys are the numeric attrs a completed load carries, in
// pipeline order. They mirror core.LoadBreakdown.
var loadBreakdownKeys = []string{
	"verify", "alloc", "copy", "reloc", "install", "protect", "measure", "schedule",
}

// taskCycles sums the task activation windows per task. Every dispatch
// opens exactly one window, so the window count is the dispatch count.
func (a *Analysis) taskCycles() map[string]TaskCycles {
	tasks := make(map[string]TaskCycles)
	for _, s := range a.Spans {
		if s.Class != ClassTask {
			continue
		}
		t := tasks[s.Subject]
		t.Name = s.Subject
		t.Cycles += s.Duration()
		t.Dispatches++
		tasks[s.Subject] = t
	}
	return tasks
}

// Profile builds the cycle-attribution profile of a single-platform
// stream covering [0, totalCycles): the stream's final task window runs
// on to totalCycles (the platform's cycle count when the stream was
// taken), not just to the last event.
func (a *Analysis) Profile(totalCycles uint64) *Profile {
	p := &Profile{TotalCycles: totalCycles}

	tasks := a.taskCycles()
	if last := a.lastTask; last.Class == ClassTask {
		t := tasks[last.Subject]
		t.Cycles -= last.Duration()
		if totalCycles > last.Start {
			t.Cycles += totalCycles - last.Start
		}
		tasks[last.Subject] = t
	}
	for _, t := range tasks {
		p.Tasks = append(p.Tasks, t)
	}
	sort.Slice(p.Tasks, func(i, j int) bool {
		if p.Tasks[i].Cycles != p.Tasks[j].Cycles {
			return p.Tasks[i].Cycles > p.Tasks[j].Cycles
		}
		return p.Tasks[i].Name < p.Tasks[j].Name
	})

	// Per-load-phase: sum breakdowns from completed loads.
	phase := make(map[string]uint64)
	for _, e := range a.Events {
		if class, _, _ := Sample(e); class != ClassLoad {
			continue
		}
		for _, k := range loadBreakdownKeys {
			if n, ok := e.NumAttr(k); ok {
				phase[k] += n
			}
		}
	}
	for _, k := range loadBreakdownKeys {
		if n := phase[k]; n > 0 {
			p.LoadPhases = append(p.LoadPhases, PhaseCycles{Phase: k, Cycles: n})
		}
	}
	return p
}

// String renders the profile as a fixed-width report.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle profile over %d cycles\n", p.TotalCycles)
	if len(p.Tasks) > 0 {
		sb.WriteString("\n  task                 cycles       share  dispatches\n")
		for _, t := range p.Tasks {
			share := 0.0
			if p.TotalCycles > 0 {
				share = float64(t.Cycles) / float64(p.TotalCycles) * 100
			}
			fmt.Fprintf(&sb, "  %-16s %10d  %9.1f%%  %10d\n", t.Name, t.Cycles, share, t.Dispatches)
		}
	}
	if len(p.LoadPhases) > 0 {
		var total uint64
		for _, ph := range p.LoadPhases {
			total += ph.Cycles
		}
		sb.WriteString("\n  load phase           cycles       share\n")
		for _, ph := range p.LoadPhases {
			fmt.Fprintf(&sb, "  %-16s %10d  %9.1f%%\n", ph.Phase, ph.Cycles,
				float64(ph.Cycles)/float64(total)*100)
		}
	}
	return sb.String()
}
