package analyze

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestProfile(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.SubKernel, trace.KindTaskSwitch, "idle"),
		ev(100, trace.SubKernel, trace.KindTaskSwitch, "t0"),
		ev(400, trace.SubKernel, trace.KindTaskSwitch, "idle"),
		ev(500, trace.SubKernel, trace.KindTaskSwitch, "t0"),
		ev(700, trace.SubLoader, trace.KindLoadPhase, "img",
			trace.Str("phase", "done"), trace.Num("alloc", 40), trace.Num("copy", 60)),
	}
	p := Analyze(events).Profile(1000)
	if len(p.Tasks) != 2 {
		t.Fatalf("tasks = %+v", p.Tasks)
	}
	// t0: [100,400)+[500,1000) = 800; idle: [0,100)+[400,500) = 200.
	if p.Tasks[0].Name != "t0" || p.Tasks[0].Cycles != 800 || p.Tasks[0].Dispatches != 2 {
		t.Errorf("t0 = %+v", p.Tasks[0])
	}
	if p.Tasks[1].Name != "idle" || p.Tasks[1].Cycles != 200 {
		t.Errorf("idle = %+v", p.Tasks[1])
	}
	if len(p.LoadPhases) != 2 || p.LoadPhases[0] != (PhaseCycles{"alloc", 40}) {
		t.Errorf("load phases = %+v", p.LoadPhases)
	}
	if s := p.String(); !strings.Contains(s, "t0") || !strings.Contains(s, "alloc") {
		t.Errorf("String = %q", s)
	}
}

// TestProfileNoTaskSwitches: a window with zero task-switch events
// must profile cleanly (no tasks, no crash), not divide by zero.
func TestProfileNoTaskSwitches(t *testing.T) {
	p := Analyze(nil).Profile(0)
	if len(p.Tasks) != 0 || len(p.LoadPhases) != 0 {
		t.Errorf("empty profile = %+v", p)
	}
	_ = p.String()

	p = Analyze([]trace.Event{
		ev(10, trace.SubKernel, trace.KindSyscall, "t0"),
		ev(700, trace.SubLoader, trace.KindLoadPhase, "img",
			trace.Str("phase", "done"), trace.Num("alloc", 40)),
	}).Profile(1000)
	if len(p.Tasks) != 0 {
		t.Errorf("tasks from switchless stream = %+v", p.Tasks)
	}
	if len(p.LoadPhases) != 1 {
		t.Errorf("load phases = %+v", p.LoadPhases)
	}
	_ = p.String()
}
