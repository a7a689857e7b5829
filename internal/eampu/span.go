package eampu

// Decision-cache support: the simulator memoizes CheckExec/CheckData
// verdicts so that straight-line execution and repeated data accesses
// skip the linear 18-slot scan. A memoized "allow" is only sound while
// (a) the rule configuration is unchanged — tracked by the generation
// counter — and (b) the access stays inside an address span over which
// the verdict is provably constant. Only allows a CheckExec/CheckData
// call returned are memoized, so every denial is decided, and counted,
// by the unit itself.
//
// The spans computed here have that property by construction: around a
// probe address they are narrowed by every used slot's region boundary,
// so within a span the *set of rules whose region covers the address*
// never changes. checkByte's verdict depends only on that covering set
// (plus the executing PC's own covering set, handled by CodeSpan), so a
// verdict observed at one address in the span holds at every address in
// the span.

// MaxAddr is the highest representable physical address; full-range
// spans are expressed as [0, MaxAddr] inclusive.
const MaxAddr = ^uint32(0)

// Generation returns the configuration generation: a counter bumped by
// every Install, Clear, ClearOwner, Enable and Reset. External decision
// caches tag entries with it and treat any mismatch as "flush".
func (m *MPU) Generation() uint64 { return m.gen }

// narrowSpan shrinks the inclusive span [lo, hi] around addr so that
// membership in r is constant across the result: either the whole span
// lies inside r, or none of it does. Empty regions never affect any
// verdict and are skipped.
func narrowSpan(lo, hi, addr uint32, r Region) (uint32, uint32) {
	if r.Size == 0 {
		return lo, hi
	}
	if r.Contains(addr) {
		if r.Start > lo {
			lo = r.Start
		}
		if end := r.Start + r.Size - 1; end < hi {
			hi = end
		}
	} else if addr < r.Start {
		if r.Start-1 < hi {
			hi = r.Start - 1
		}
	} else { // addr at or past the region's end
		if end := r.Start + r.Size; end > lo {
			lo = end
		}
	}
	return lo, hi
}

// DataSpan returns the maximal inclusive span around addr within which
// every used slot's Data region membership is constant; a CheckData
// verdict for one address in the span (at a fixed PC covering set, see
// CodeSpan) holds for all of them.
func (m *MPU) DataSpan(addr uint32) (lo, hi uint32) {
	lo, hi = 0, MaxAddr
	if !m.enabled {
		return lo, hi
	}
	for i := 0; i < NumSlots; i++ {
		if m.used[i] {
			lo, hi = narrowSpan(lo, hi, addr, m.slots[i].Data)
		}
	}
	return lo, hi
}

// CodeSpan returns the maximal inclusive span around pc within which
// every used slot's Code region membership — and therefore every rule's
// applicability to the executing PC — is constant.
func (m *MPU) CodeSpan(pc uint32) (lo, hi uint32) {
	lo, hi = 0, MaxAddr
	if !m.enabled {
		return lo, hi
	}
	for i := 0; i < NumSlots; i++ {
		if m.used[i] {
			lo, hi = narrowSpan(lo, hi, pc, m.slots[i].Code)
		}
	}
	return lo, hi
}

// ExecSpan returns the maximal inclusive span around addr within which
// a fetch verdict is constant: both the Data covering set (which rules
// claim/grant the fetched address) and the Code covering set (which
// rules apply to code executing there) are invariant. Within such a
// span an observed CheckExec "allow" extends to every (fromPC, addr)
// pair drawn from the span: if the span lies inside an entry-enforcing
// region then fromPC is inside that region too, so the entry-point
// check does not fire; if it lies in unclaimed memory the fetch is
// public either way.
func (m *MPU) ExecSpan(addr uint32) (lo, hi uint32) {
	lo, hi = 0, MaxAddr
	if !m.enabled {
		return lo, hi
	}
	for i := 0; i < NumSlots; i++ {
		if m.used[i] {
			ru := &m.slots[i]
			lo, hi = narrowSpan(lo, hi, addr, ru.Data)
			lo, hi = narrowSpan(lo, hi, addr, ru.Code)
		}
	}
	return lo, hi
}
