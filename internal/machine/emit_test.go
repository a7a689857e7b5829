package machine

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// emitBatch is how many events the buffer cases keep before starting a
// fresh buffer, so a long run does not hold b.N events in memory.
const emitBatch = 1 << 16

// BenchmarkEmit measures one kernel-shaped event (a task switch with two
// attributes, guarded like every frequent call site) through
// Machine.Emit, the platform's one emission path: with no sink, into a
// trace.Buffer (what core.EnableObservability installs), and into a
// buffer-plus-SinkFunc fan-out (the same with one extra sink).
func BenchmarkEmit(b *testing.B) {
	for _, c := range []struct {
		name string
		sink func() trace.Sink
	}{
		{"nil", func() trace.Sink { return nil }},
		{"buffer", func() trace.Sink { return new(trace.Buffer) }},
		{"multi", func() trace.Sink {
			return trace.Multi(new(trace.Buffer), trace.SinkFunc(func(trace.Event) {}))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := New(0)
			defer m.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%emitBatch == 0 {
					m.Obs = c.sink()
				}
				if m.Obs != nil {
					m.Emit(trace.SubKernel, trace.KindTaskSwitch, "task",
						trace.Num("id", 1), trace.Num("prio", 3))
				}
			}
		})
	}
}

// TestEmitAllocs: an attribute-less event costs no allocation, whether
// nothing listens or a SinkFunc does; an event with attributes into a
// trace.Buffer allocates only when the buffer or the machine's attr
// arena opens a new chunk, well under 0.1 allocations per event.
func TestEmitAllocs(t *testing.T) {
	m := New(0)
	defer m.Release()
	var seen int
	for _, sink := range []trace.Sink{nil, trace.SinkFunc(func(trace.Event) { seen++ })} {
		m.Obs = sink
		if got := testing.AllocsPerRun(100, func() {
			m.Emit(trace.SubLoader, trace.KindLoadPhase, "img")
		}); got != 0 {
			t.Errorf("Emit with sink %T: %v allocs/op, want 0", sink, got)
		}
	}
	if seen == 0 {
		t.Error("SinkFunc saw no event")
	}

	// testing.AllocsPerRun rounds down to whole allocations, so count
	// the mallocs of a long run directly.
	const events = 20_000
	buf := new(trace.Buffer)
	m.Obs = buf
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < events; i++ {
		m.Emit(trace.SubKernel, trace.KindTaskSwitch, "task", trace.Num("id", uint64(i)), trace.Num("prio", 3))
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / events; got >= 0.1 {
		t.Errorf("Emit with attrs into a Buffer: %.3f allocs/event, want < 0.1", got)
	}
	if got := buf.Len(); got != events {
		t.Fatalf("buffer holds %d events, want %d", got, events)
	}
	got := buf.Events()
	if last := got[len(got)-1]; len(last.Attrs) != 2 || last.Attrs[0].Num != events-1 {
		t.Errorf("last event attrs = %v, want id=%d prio=3", last.Attrs, events-1)
	}
}
