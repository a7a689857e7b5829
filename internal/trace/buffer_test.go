package trace

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refBuffer is the plain-slice reference Buffer's chunked storage must
// agree with: one []Event, walked front to back.
type refBuffer []Event

func (r refBuffer) count(kind Kind, subject string, from, to uint64) int {
	n := 0
	for _, e := range r {
		if e.Kind == kind && e.Subject == subject && e.Cycle >= from && e.Cycle < to {
			n++
		}
	}
	return n
}

func (r refBuffer) rateKHz(kind Kind, subject string, from, to, clockHz uint64) float64 {
	if to <= from {
		return 0
	}
	return float64(r.count(kind, subject, from, to)) / (float64(to-from) / float64(clockHz)) / 1000
}

func (r refBuffer) gaps(kind Kind, subject string) []uint64 {
	var out []uint64
	var prev uint64
	have := false
	for _, e := range r {
		if e.Kind != kind || e.Subject != subject {
			continue
		}
		if have {
			out = append(out, e.Cycle-prev)
		}
		prev, have = e.Cycle, true
	}
	slices.Sort(out)
	return out
}

func (r refBuffer) String() string {
	var sb strings.Builder
	for _, e := range r {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// chunkEvent is the i-th event of the boundary stream: three kinds,
// two subjects and irregular cycle gaps, so every query has matches
// spread across chunks.
func chunkEvent(i int) Event {
	e := Event{Cycle: uint64(i)*7 + uint64(i%5)*3, Sub: SubKernel, Kind: KindTick}
	switch i % 3 {
	case 1:
		e.Kind, e.Subject = KindTaskSwitch, "a"
		e.Attrs = []Attr{Num("id", uint64(i))}
	case 2:
		e.Kind, e.Subject = KindTaskSwitch, "b"
	}
	return e
}

// TestBufferChunkBoundaries: at every size around a chunk boundary —
// empty, one event, either side of the first chunk's 64 and of the
// second's end at 192, and past 8192 where chunks stop doubling — each
// query answers exactly what a plain slice of the same events does.
func TestBufferChunkBoundaries(t *testing.T) {
	type query struct {
		kind    Kind
		subject string
	}
	queries := []query{{KindTick, ""}, {KindTaskSwitch, "a"}, {KindTaskSwitch, "b"}, {KindIRQ, ""}}
	for _, n := range []int{0, 1, 63, 64, 65, 191, 192, 193, 8128, 8129, 12345} {
		b := new(Buffer)
		ref := make(refBuffer, 0, n)
		for i := 0; i < n; i++ {
			e := chunkEvent(i)
			b.Emit(e)
			ref = append(ref, e)
		}
		if got := b.Len(); got != n {
			t.Errorf("n=%d: Len = %d", n, got)
		}
		events := b.Events()
		if n == 0 && events != nil {
			t.Errorf("n=0: Events = %v, want nil", events)
		}
		if len(events) != cap(events) {
			t.Errorf("n=%d: Events has len %d cap %d, want an exact-size copy", n, len(events), cap(events))
		}
		if !reflect.DeepEqual(events, []Event(ref)) && n > 0 {
			t.Errorf("n=%d: Events differs from the reference", n)
		}
		if got := b.AppendEvents([]Event{{Subject: "head"}}); len(got) != n+1 || (n > 0 && !reflect.DeepEqual(got[1:], []Event(ref))) {
			t.Errorf("n=%d: AppendEvents differs from the reference", n)
		}
		if got, want := b.String(), ref.String(); got != want {
			t.Errorf("n=%d: String differs from the reference", n)
		}
		last := uint64(n) * 8
		// Whole run, first event, middle third, straddling the first
		// chunk boundary, and empty.
		windows := [][2]uint64{{0, last}, {0, 1}, {last / 3, 2 * last / 3}, {chunkEvent(63).Cycle, chunkEvent(65).Cycle}, {5, 5}}
		for _, q := range queries {
			for _, w := range windows {
				if got, want := b.Count(q.kind, q.subject, w[0], w[1]), ref.count(q.kind, q.subject, w[0], w[1]); got != want {
					t.Errorf("n=%d: Count(%v, %q, %d, %d) = %d, want %d", n, q.kind, q.subject, w[0], w[1], got, want)
				}
				if got, want := b.RateKHz(q.kind, q.subject, w[0], w[1], 1_000_000), ref.rateKHz(q.kind, q.subject, w[0], w[1], 1_000_000); got != want {
					t.Errorf("n=%d: RateKHz(%v, %q, %d, %d) = %v, want %v", n, q.kind, q.subject, w[0], w[1], got, want)
				}
			}
			gaps := ref.gaps(q.kind, q.subject)
			if got := b.Gaps(q.kind, q.subject); !slices.Equal(got, gaps) {
				t.Errorf("n=%d: Gaps(%v, %q) differs from the reference", n, q.kind, q.subject)
			}
			var maxGap uint64
			if len(gaps) > 0 {
				maxGap = gaps[len(gaps)-1]
			}
			if got := b.MaxGap(q.kind, q.subject); got != maxGap {
				t.Errorf("n=%d: MaxGap(%v, %q) = %d, want %d", n, q.kind, q.subject, got, maxGap)
			}
		}
	}
}
