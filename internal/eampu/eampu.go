// Package eampu models TyTAN's Execution-Aware Memory Protection Unit.
//
// The EA-MPU (introduced by TrustLite and extended by TyTAN with dynamic
// reconfiguration) enforces memory access control based on *which code
// is executing*: a rule grants a code region access to a data region, so
// the stack of a task can be made accessible to the task itself and to
// nothing else. The unit also enforces that protected code regions are
// only ever entered at a dedicated entry point, defeating code-reuse
// attacks against secure tasks.
//
// Semantics implemented here (and exercised by internal/machine's
// interpreter on every instruction fetch, load and store it does not
// serve from a memoized allow; see span.go):
//
//   - A data access at address A by code executing at PC is allowed if A
//     lies in no protected region at all (unclaimed memory is public) or
//     if some rule R has PC ∈ R.Code, A ∈ R.Data and the access kind in
//     R.Perm.
//   - An instruction fetch at address A is allowed under the same data
//     rule model with PermX; additionally, a control transfer from
//     outside a region with entry enforcement must land exactly on the
//     rule's entry point.
//   - Rules installed during secure boot are Locked: they cannot be
//     replaced or cleared at runtime, protecting the trusted components
//     and the IDT.
//
// The unit has NumSlots (18) rule slots, matching Table 6 of the paper.
// Slot search, policy checking and rule writes are mechanically separate
// operations so the EA-MPU driver (internal/trusted) can charge their
// distinct cycle costs.
package eampu

import (
	"errors"
	"fmt"
)

// NumSlots is the number of rule slots in the EA-MPU (Table 6: "18
// slots in total").
const NumSlots = 18

// Perm is a permission bit set.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota // read
	PermW                  // write
	PermX                  // execute

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// String renders the permission set as "rwx" style flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Region is a half-open physical address range [Start, Start+Size).
type Region struct {
	Start uint32
	Size  uint32
}

// End returns the exclusive end address.
func (r Region) End() uint32 { return r.Start + r.Size }

// Contains reports whether addr lies in the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Start && addr-r.Start < r.Size
}

// ContainsRange reports whether the whole range [addr, addr+size) lies
// in the region.
func (r Region) ContainsRange(addr, size uint32) bool {
	if size == 0 {
		return r.Contains(addr)
	}
	return r.Contains(addr) && addr+size-1 >= addr && r.Contains(addr+size-1)
}

// Overlaps reports whether the two regions share any address.
func (r Region) Overlaps(o Region) bool {
	if r.Size == 0 || o.Size == 0 {
		return false
	}
	return r.Start < o.End() && o.Start < r.End()
}

// String formats the region as [start,end).
func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x)", r.Start, r.End())
}

// Rule grants the code executing inside Code the permissions Perm on
// Data. A zero-size Code region means "any code" (used for public
// read-only regions such as shared ROM constants).
type Rule struct {
	// Code is the region whose instructions receive the grant.
	Code Region
	// Data is the protected region the grant covers.
	Data Region
	// Perm is the granted access kinds.
	Perm Perm
	// Entry, when EnforceEntry is set, is the only address at which
	// control may enter Data from outside it.
	Entry uint32
	// EnforceEntry enables entry-point enforcement for executable rules.
	EnforceEntry bool
	// Locked marks boot-time rules that cannot be modified at runtime.
	Locked bool
	// GrantOnly marks a rule that confers access without *claiming* the
	// data region: the region does not become protected by virtue of
	// this rule. Trusted components use grant-only rules for their
	// broad access (e.g. the IPC proxy's right to write into any task's
	// memory), and the proxy uses them for shared-memory windows so a
	// second task's view of the window does not trip the overlap check.
	GrantOnly bool
	// Owner is a small tag identifying who installed the rule (task ID
	// or trusted-component ID); it is diagnostic only and carries no
	// enforcement semantics.
	Owner uint32
}

// appliesTo reports whether code executing at pc enjoys this rule.
func (ru *Rule) appliesTo(pc uint32) bool {
	return ru.Code.Size == 0 || ru.Code.Contains(pc)
}

// AccessKind distinguishes the three access types the unit checks.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

func (k AccessKind) perm() Perm {
	switch k {
	case AccessRead:
		return PermR
	case AccessWrite:
		return PermW
	default:
		return PermX
	}
}

// Violation describes a denied access. It is returned as an error by the
// check methods and surfaces as a memory-protection fault in the machine.
type Violation struct {
	PC   uint32
	Kind AccessKind
	Addr uint32
	// Entry is set for entry-point violations: the address control
	// should have entered at.
	Entry    uint32
	EntryErr bool
}

func (v *Violation) Error() string {
	if v.EntryErr {
		return fmt.Sprintf("eampu: entry violation: pc %#x jumped to %#x, region entry is %#x", v.PC, v.Addr, v.Entry)
	}
	return fmt.Sprintf("eampu: %s violation: pc %#x accessing %#x", v.Kind, v.PC, v.Addr)
}

// Errors returned by configuration operations.
var (
	ErrSlotInUse   = errors.New("eampu: slot in use")
	ErrSlotFree    = errors.New("eampu: slot not in use")
	ErrSlotLocked  = errors.New("eampu: slot locked")
	ErrSlotRange   = errors.New("eampu: slot out of range")
	ErrNoFreeSlot  = errors.New("eampu: no free slot")
	ErrOverlap     = errors.New("eampu: data region overlaps existing protected region")
	ErrEmptyRegion = errors.New("eampu: empty data region")
)

// MPU is the protection unit state. The zero value is a disabled unit
// with all slots free; call Enable after installing boot rules.
type MPU struct {
	slots   [NumSlots]Rule
	used    [NumSlots]bool
	enabled bool

	// gen counts configuration changes (rule installs/clears, enable,
	// reset). Decision caches outside the unit key their entries on it:
	// any reconfiguration invalidates every memoized verdict. See
	// span.go.
	gen uint64

	// violations counts denied accesses since reset (observability; the
	// unit itself only reports the fault): every CheckData or CheckExec
	// call that returns a Violation counts once.
	violations uint64
}

// Violations returns the number of accesses the unit has denied.
func (m *MPU) Violations() uint64 { return m.violations }

// Enable switches enforcement on. Secure boot installs the static rules
// first and then enables the unit.
func (m *MPU) Enable() {
	m.enabled = true
	m.gen++
}

// Enabled reports whether enforcement is active.
func (m *MPU) Enabled() bool { return m.enabled }

// Slot returns the rule in slot i and whether it is in use.
func (m *MPU) Slot(i int) (Rule, bool) {
	if i < 0 || i >= NumSlots {
		return Rule{}, false
	}
	return m.slots[i], m.used[i]
}

// UsedSlots returns the number of slots currently in use.
func (m *MPU) UsedSlots() int {
	n := 0
	for _, u := range m.used {
		if u {
			n++
		}
	}
	return n
}

// FindFreeSlot returns the index of the first free slot and the number
// of slots examined (the driver charges a per-slot scan cost, Table 6).
func (m *MPU) FindFreeSlot() (slot, scanned int, err error) {
	for i := 0; i < NumSlots; i++ {
		if !m.used[i] {
			return i, i + 1, nil
		}
	}
	return -1, NumSlots, ErrNoFreeSlot
}

// PolicyCheck validates a candidate rule against the current
// configuration: the data region must be non-empty and must not overlap
// any protected region installed by a different owner. Overlaps with
// Locked boot rules are permitted — the trusted components deliberately
// hold broad grants (e.g. the IPC proxy may write to task memory) that
// would otherwise forbid every task rule.
func (m *MPU) PolicyCheck(r Rule) error {
	if r.Data.Size == 0 {
		return ErrEmptyRegion
	}
	if r.GrantOnly {
		return nil // grant-only rules claim nothing, so cannot conflict
	}
	for i := 0; i < NumSlots; i++ {
		if !m.used[i] {
			continue
		}
		ex := &m.slots[i]
		if ex.Locked || ex.GrantOnly {
			continue
		}
		if ex.Owner == r.Owner {
			continue
		}
		if ex.Data.Overlaps(r.Data) {
			return fmt.Errorf("%w: %v overlaps slot %d %v", ErrOverlap, r.Data, i, ex.Data)
		}
	}
	return nil
}

// Install writes a rule into a free slot. It does not run PolicyCheck;
// the EA-MPU driver composes FindFreeSlot, PolicyCheck and Install so it
// can charge each phase separately.
func (m *MPU) Install(slot int, r Rule) error {
	if slot < 0 || slot >= NumSlots {
		return ErrSlotRange
	}
	if m.used[slot] {
		return ErrSlotInUse
	}
	m.slots[slot] = r
	m.used[slot] = true
	m.gen++
	return nil
}

// Clear frees a slot. Locked rules cannot be cleared once the unit is
// enabled (they are fixed at secure boot).
func (m *MPU) Clear(slot int) error {
	if slot < 0 || slot >= NumSlots {
		return ErrSlotRange
	}
	if !m.used[slot] {
		return ErrSlotFree
	}
	if m.slots[slot].Locked && m.enabled {
		return ErrSlotLocked
	}
	m.slots[slot] = Rule{}
	m.used[slot] = false
	m.gen++
	return nil
}

// ClearOwner frees every unlocked slot installed by owner and returns
// how many were cleared. The driver uses it when unloading a task.
func (m *MPU) ClearOwner(owner uint32) int {
	n := 0
	for i := 0; i < NumSlots; i++ {
		if m.used[i] && !m.slots[i].Locked && m.slots[i].Owner == owner {
			m.slots[i] = Rule{}
			m.used[i] = false
			n++
		}
	}
	if n > 0 {
		m.gen++
	}
	return n
}

// CheckData validates a read or write of size bytes at addr performed by
// code executing at pc. It returns nil if allowed and a *Violation
// otherwise.
//
// Regions are page-less, so deciding the first and last byte suffices
// for the small (1/4 byte) accesses the core performs. The two boundary
// checks are unrolled, and when the rule granting the first byte also
// covers the last byte the second slot scan is skipped entirely — the
// common case for aligned word accesses inside a task's own region.
func (m *MPU) CheckData(pc uint32, kind AccessKind, addr, size uint32) error {
	if !m.enabled {
		return nil
	}
	if size == 0 {
		size = 1
	}
	granted, err := m.checkByte(pc, kind, addr)
	if err != nil {
		return err
	}
	last := addr + size - 1
	if last == addr {
		return nil
	}
	if granted >= 0 && m.slots[granted].Data.Contains(last) {
		return nil // the same rule grants both boundary bytes
	}
	_, err = m.checkByte(pc, kind, last)
	return err
}

// checkByte decides one byte. It returns the index of the granting slot
// (-1 when the byte is public unclaimed memory) or a *Violation, which
// it counts.
func (m *MPU) checkByte(pc uint32, kind AccessKind, addr uint32) (int, error) {
	need := kind.perm()
	claimed := false
	for i := 0; i < NumSlots; i++ {
		if !m.used[i] {
			continue
		}
		ru := &m.slots[i]
		if !ru.Data.Contains(addr) {
			continue
		}
		if !ru.GrantOnly {
			claimed = true
		}
		if ru.appliesTo(pc) && ru.Perm&need != 0 {
			return i, nil
		}
	}
	if !claimed {
		return -1, nil // unclaimed memory is public
	}
	m.violations++
	return -1, &Violation{PC: pc, Kind: kind, Addr: addr}
}

// CheckExec validates an instruction fetch at addr. fromPC is the
// address of the previous instruction; sequential indicates fall-through
// execution (no branch). Entry enforcement applies when control enters a
// protected executable region from outside it.
func (m *MPU) CheckExec(fromPC, addr uint32, sequential bool) error {
	if !m.enabled {
		return nil
	}
	claimed := false
	var entered *Rule
	for i := 0; i < NumSlots; i++ {
		if !m.used[i] {
			continue
		}
		ru := &m.slots[i]
		if !ru.Data.Contains(addr) {
			continue
		}
		if !ru.GrantOnly {
			claimed = true
		}
		if ru.appliesTo(addr) && ru.Perm&PermX != 0 {
			if entered == nil {
				entered = ru
			}
			// Prefer a rule that enforces an entry point for the
			// transfer check: it is the task's own identity rule.
			if ru.EnforceEntry {
				entered = ru
			}
		}
	}
	if !claimed {
		return nil
	}
	if entered == nil {
		m.violations++
		return &Violation{PC: fromPC, Kind: AccessExec, Addr: addr}
	}
	if entered.EnforceEntry && !entered.Data.Contains(fromPC) {
		// Control came from outside the region: it must be an explicit
		// branch landing exactly on the entry point. Sequential
		// fall-through across the region boundary is rejected even at
		// the entry — invoking a task is a deliberate control transfer,
		// and accepting accidental fall-through would let code that
		// corrupted its own text "walk" into a neighbouring task.
		if sequential || addr != entered.Entry {
			m.violations++
			return &Violation{PC: fromPC, Kind: AccessExec, Addr: addr, Entry: entered.Entry, EntryErr: true}
		}
	}
	return nil
}

// Reset returns the unit to its zero state (all slots free, disabled).
// Only the simulator harness uses it; real hardware resets on power
// cycle. The generation counter survives (and advances) so that caches
// keyed on it cannot mistake the post-reset configuration for a
// pre-reset one.
func (m *MPU) Reset() {
	gen, viol := m.gen, m.violations
	*m = MPU{}
	m.gen = gen + 1
	m.violations = viol
}
