package core

import (
	"math/rand"
	"testing"

	"repro/internal/rtos"
)

// TestSoakRandomLifecycle hammers the platform with a randomized
// sequence of loads, unloads, suspends, resumes and runs, then checks
// the global invariants: the kernel never errors, the allocator's
// live count matches the loaded ISA tasks, the RTM registry matches the
// loaded secure tasks, and EA-MPU slots are reclaimed.
func TestSoakRandomLifecycle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run("seed", func(t *testing.T) {
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := newTyTAN(t)
	free := p.K.Alloc.FreeBytes()

	type live struct {
		id     rtos.TaskID
		secure bool
	}
	var tasks []live
	loads, unloads, suspends := 0, 0, 0

	for step := 0; step < 120; step++ {
		switch op := r.Intn(10); {
		case op < 4: // load
			kind := Secure
			if r.Intn(3) == 0 {
				kind = Normal
			}
			name := "soak" + itoa(step)
			im := GenTestImage(t, name)
			tcb, _, err := p.LoadTaskSync(im, kind, 1+r.Intn(6))
			if err != nil {
				// Slot/memory exhaustion is a legal outcome; everything
				// else is a bug.
				if len(tasks) < 3 {
					t.Fatalf("step %d: load failed with only %d tasks: %v", step, len(tasks), err)
				}
				continue
			}
			tasks = append(tasks, live{id: tcb.ID, secure: kind == Secure})
			loads++
		case op < 6 && len(tasks) > 0: // unload
			i := r.Intn(len(tasks))
			if err := p.Unload(tasks[i].id); err != nil {
				t.Fatalf("step %d: unload: %v", step, err)
			}
			tasks = append(tasks[:i], tasks[i+1:]...)
			unloads++
		case op < 7 && len(tasks) > 0: // suspend + resume
			i := r.Intn(len(tasks))
			if err := p.Suspend(tasks[i].id); err != nil && err != rtos.ErrNoSuchTask {
				t.Fatalf("step %d: suspend: %v", step, err)
			}
			if err := p.Resume(tasks[i].id); err != nil && err != rtos.ErrNoSuchTask && err != rtos.ErrDeadTask {
				t.Fatalf("step %d: resume: %v", step, err)
			}
			suspends++
		default: // run
			if err := p.Run(uint64(1+r.Intn(4)) * DefaultTickPeriod); err != nil {
				t.Fatalf("step %d: run: %v", step, err)
			}
		}

		// Tasks may exit or die on their own; resync our view.
		alive := tasks[:0]
		for _, l := range tasks {
			if _, ok := p.K.Task(l.id); ok {
				alive = append(alive, l)
			}
		}
		tasks = alive

		// Invariants after every step.
		secureCount := 0
		var held uint32
		for _, l := range tasks {
			if l.secure {
				secureCount++
			}
			tcb, _ := p.K.Task(l.id)
			n, ok := p.K.Alloc.SizeOf(tcb.Placement.Base)
			if !ok {
				t.Fatalf("step %d: task %d holds no allocation", step, l.id)
			}
			held += n
		}
		if got := p.C.RTM.Entries(); got != secureCount {
			t.Fatalf("step %d: registry %d entries, %d secure tasks loaded", step, got, secureCount)
		}
		if live := free - p.K.Alloc.FreeBytes(); live != held {
			t.Fatalf("step %d: allocator %d bytes live, %d tasks hold %d", step, live, len(tasks), held)
		}
	}
	if loads == 0 || unloads == 0 {
		t.Fatalf("soak exercised nothing: %d loads, %d unloads, %d suspends", loads, unloads, suspends)
	}

	// Drain: unload everything, then every resource is back.
	for _, l := range tasks {
		if err := p.Unload(l.id); err != nil {
			t.Fatal(err)
		}
	}
	if p.K.Alloc.FreeBytes() != free {
		t.Error("allocator leak after drain")
	}
	if p.C.RTM.Entries() != 0 {
		t.Error("registry leak after drain")
	}
	if used := p.M.MPU.UsedSlots(); used != 7 {
		t.Errorf("EA-MPU slots after drain = %d, want 7 boot rules", used)
	}
	// The platform still works.
	if _, _, err := p.LoadTaskSync(GenTestImage(t, "final"), Secure, 3); err != nil {
		t.Errorf("load after soak: %v", err)
	}
}
