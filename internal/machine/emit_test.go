package machine

import (
	"testing"

	"repro/internal/trace"
)

// emitBatch is how many events the buffer cases keep before starting a
// fresh buffer, so a long run does not hold b.N events in memory.
const emitBatch = 1 << 16

// BenchmarkEmit measures one kernel-shaped event (a task switch with two
// attributes, guarded like every frequent call site) through
// Machine.Emit, the platform's one emission path: with no sink, into a
// trace.Buffer, and into the buffer-plus-SinkFunc fan-out that
// core.EnableObservability installs.
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
// nothing listens or a SinkFunc does.
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
}
