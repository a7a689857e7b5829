package fleet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

// The flight recorder's bounded window: what it keeps as it fills,
// wraps and wraps again.

func windowEvent(n int) trace.Event {
	return trace.Event{Cycle: uint64(n), Sub: trace.SubRemote, Kind: trace.KindSession, Subject: fmt.Sprintf("e%d", n)}
}

// recorded returns the recorder's current window, oldest first.
func recorded(r *Recorder) []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshot()
}

func windowCycles(evs []trace.Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Cycle
	}
	return out
}

func wantCycles(t *testing.T, got []trace.Event, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window len = %d, want %d (%v)", len(got), len(want), windowCycles(got))
	}
	for i, w := range want {
		if got[i].Cycle != w {
			t.Fatalf("window cycles = %v, want %v", windowCycles(got), want)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder("dev-x", 4)
	wantCycles(t, recorded(r))
	for i := 1; i <= 3; i++ {
		r.Emit(windowEvent(i))
	}
	wantCycles(t, recorded(r), 1, 2, 3)
}

func TestRecorderExactCapacityBoundary(t *testing.T) {
	r := NewRecorder("dev-x", 4)
	// Exactly capacity events: nothing overwritten yet, order preserved.
	for i := 1; i <= 4; i++ {
		r.Emit(windowEvent(i))
	}
	wantCycles(t, recorded(r), 1, 2, 3, 4)

	// One past capacity: the single oldest event is gone.
	r.Emit(windowEvent(5))
	wantCycles(t, recorded(r), 2, 3, 4, 5)
}

func TestRecorderMultipleWraps(t *testing.T) {
	r := NewRecorder("dev-x", 3)
	// 2*cap+1 events: retains exactly the trailing cap, oldest-first.
	for i := 1; i <= 7; i++ {
		r.Emit(windowEvent(i))
	}
	wantCycles(t, recorded(r), 5, 6, 7)
	// Exactly another full lap lands back on the same boundary.
	for i := 8; i <= 10; i++ {
		r.Emit(windowEvent(i))
	}
	wantCycles(t, recorded(r), 8, 9, 10)
}

func TestRecorderCapacityOne(t *testing.T) {
	r := NewRecorder("dev-x", 1)
	r.Emit(windowEvent(1))
	wantCycles(t, recorded(r), 1)
	r.Emit(windowEvent(2))
	wantCycles(t, recorded(r), 2)
}

func TestRecorderSnapshotIsCopy(t *testing.T) {
	r := NewRecorder("dev-x", 2)
	r.Emit(windowEvent(1))
	snap := recorded(r)
	r.Emit(windowEvent(2))
	r.Emit(windowEvent(3))
	wantCycles(t, snap, 1)
	wantCycles(t, recorded(r), 2, 3)
}

func TestRecorderRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder with capacity 0 did not panic")
		}
	}()
	NewRecorder("dev-x", 0)
}

// TestRecorderConcurrentEmit emits from several goroutines at once, as
// a device's platform and its wire server may; run it under -race.
func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder("dev-x", 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(windowEvent(g*100 + i))
			}
			r.Emit(trace.Event{Cycle: uint64(1000 + g), Kind: trace.KindSLOViolation, Subject: "dev-x"})
		}(g)
	}
	wg.Wait()
	if n := len(recorded(r)); n != 8 {
		t.Fatalf("window = %d events, want 8", n)
	}
	inc, ok := r.Incident(nil)
	if !ok || inc.Trigger != TriggerSLOViolation || len(inc.Window) != 8 {
		t.Fatalf("incident = %+v, ok %v; want an slo-violation trip with a full window", inc, ok)
	}
}
