package rtos

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/contract"
	"repro/internal/trace"
)

func TestRegisterDeadlineErrors(t *testing.T) {
	k := newKernel(t, Config{})
	im := mustImage(t, `
.task "d"
.entry main
.stack 128
.text
main:
    svc 1
`)
	tcb, err := loadTask(k, im, KindNormal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterDeadline(tcb.ID, 0); err == nil {
		t.Error("period 0 accepted")
	}
	if err := k.RegisterDeadline(tcb.ID+1000, 100); !errors.Is(err, ErrNoSuchTask) {
		t.Errorf("unknown task: err = %v", err)
	}
	if err := k.RegisterDeadline(tcb.ID, 100); err != nil {
		t.Errorf("valid registration: %v", err)
	}
	if err := k.RunUntil(k.M.Cycles() + 100_000); err != nil {
		t.Fatal(err)
	}
	// The task exited; its watch must be retired and re-registration
	// must fail.
	if err := k.RegisterDeadline(tcb.ID, 100); !errors.Is(err, ErrNoSuchTask) && !errors.Is(err, ErrDeadTask) {
		t.Errorf("dead task: err = %v", err)
	}
}

// TestDeadlineMetByBusyTask: a task dispatched in every window never
// misses — no events, zero counters.
func TestDeadlineMetByBusyTask(t *testing.T) {
	k := newKernel(t, Config{})
	buf := &trace.Buffer{}
	k.M.Obs = buf
	im := mustImage(t, `
.task "busy"
.entry main
.stack 128
.text
main:
loop:
    jmp loop
`)
	tcb, err := loadTask(k, im, KindNormal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterDeadline(tcb.ID, 2*DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	k.StartTick()
	if err := k.RunUntil(k.M.Cycles() + 20*DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if n := k.DeadlineMisses(); n != 0 {
		t.Errorf("DeadlineMisses = %d, want 0", n)
	}
	if n := buf.Count(trace.KindDeadlineMiss, "busy", 0, ^uint64(0)); n != 0 {
		t.Errorf("%d deadline-miss events from a busy task", n)
	}
}

// TestDeadlineMissesWhileSleeping: a task that sleeps through several
// windows accrues one miss per window, each stamped as a typed event
// with deterministic attributes; exiting retires the watch but keeps
// the total monotonic.
func TestDeadlineMissesWhileSleeping(t *testing.T) {
	k := newKernel(t, Config{})
	buf := &trace.Buffer{}
	k.M.Obs = buf
	im := mustImage(t, `
.task "sleepy"
.entry main
.stack 128
.text
main:
    li r0, 300000  ; 300,000-cycle sleep
    svc 2
    svc 1
`)
	tcb, err := loadTask(k, im, KindNormal, 3)
	if err != nil {
		t.Fatal(err)
	}
	period := 2 * DefaultTickPeriod // 64,000 cycles
	if err := k.RegisterDeadline(tcb.ID, uint64(period)); err != nil {
		t.Fatal(err)
	}
	k.StartTick()
	if err := k.RunUntil(k.M.Cycles() + 12*DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}

	// The first window is covered by the initial dispatch; the sleep
	// spans the next ~4 windows, of which at least 2 complete with no
	// dispatch before the task wakes and exits.
	misses := k.DeadlineMisses()
	if misses < 2 {
		t.Fatalf("DeadlineMisses = %d, want >= 2", misses)
	}
	events := buf.Events()
	var missEvents []trace.Event
	for _, e := range events {
		if e.Kind == trace.KindDeadlineMiss {
			missEvents = append(missEvents, e)
		}
	}
	if uint64(len(missEvents)) != misses {
		t.Errorf("%d miss events vs %d counted misses", len(missEvents), misses)
	}
	var prevDeadline uint64
	for i, e := range missEvents {
		if e.Sub != trace.SubKernel || e.Subject != "sleepy" {
			t.Errorf("event %d: sub=%v subject=%q", i, e.Sub, e.Subject)
		}
		dl, ok := e.NumAttr("deadline")
		if !ok {
			t.Fatalf("event %d lacks deadline attr: %+v", i, e)
		}
		if dl <= prevDeadline {
			t.Errorf("deadlines not strictly increasing: %d then %d", prevDeadline, dl)
		}
		prevDeadline = dl
		if p, ok := e.NumAttr("period"); !ok || p != uint64(period) {
			t.Errorf("event %d: period attr = %d ok=%v", i, p, ok)
		}
		if id, ok := e.NumAttr("id"); !ok || id != uint64(tcb.ID) {
			t.Errorf("event %d: id attr = %d ok=%v", i, id, ok)
		}
		if late, ok := e.NumAttr("late"); !ok || late > uint64(period) {
			// Misses are detected at the next tick, so lateness is
			// bounded by the tick period (< the 2-tick deadline period).
			t.Errorf("event %d: late attr = %d ok=%v", i, late, ok)
		}
	}

	// The task exited: the watch is retired, but the total is monotonic.
	if _, ok := k.Task(tcb.ID); ok {
		t.Fatal("sleepy task still registered after exit")
	}
	if got := k.TaskDeadlineMisses(tcb.ID); got != 0 {
		t.Errorf("TaskDeadlineMisses after retire = %d, want 0", got)
	}
	if got := k.DeadlineMisses(); got != misses {
		t.Errorf("DeadlineMisses after retire = %d, want %d", got, misses)
	}
}

// TestDeadlineMonitoringZeroImpact: registering a deadline must not
// move a single simulated cycle or UART byte, on either engine —
// monitoring is pure observation.
func TestDeadlineMonitoringZeroImpact(t *testing.T) {
	contract.Check(t, contract.Row{Name: "deadline-monitoring", Axes: []contract.Axis{contract.Engine, contract.Toggle("deadline")}, Produce: func(t *testing.T, at contract.Point) []byte {
		k := newKernel(t, Config{})
		im := mustImage(t, `
.task "z"
.entry main
.stack 128
.text
main:
    ldi r1, 122  ; 'z'
    svc 5
    li r0, 50000
    svc 2
    ldi r1, 90   ; 'Z'
    svc 5
    svc 1
`)
		tcb, err := loadTask(k, im, KindNormal, 3)
		if err != nil {
			t.Fatal(err)
		}
		if at.On("deadline") {
			if err := k.RegisterDeadline(tcb.ID, DefaultTickPeriod); err != nil {
				t.Fatal(err)
			}
		}
		k.StartTick()
		if err := k.RunUntil(k.M.Cycles() + 10*DefaultTickPeriod); err != nil {
			t.Fatal(err)
		}
		return fmt.Appendf(nil, "cycles %d uart %q\n", k.M.Cycles(), uart(t, k).String())
	}})
}
