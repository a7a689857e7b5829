package trusted

import (
	"errors"
	"fmt"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/trace"
)

// IPCProxy implements TyTAN's secure inter-process communication (§3,
// §4): the sender loads the message and the receiver's identity into
// CPU registers and raises a software interrupt; the proxy derives the
// *sender's* identity from the interrupt origin (it cannot be forged),
// resolves the receiver's location through the RTM registry, and writes
// the message plus the authenticated sender identity into the
// receiver's mailbox. Because the EA-MPU lets only the proxy write to
// the receiver's memory, delivery implicitly authenticates both the
// message and its origin.
//
// # Register ABI (SVC 16 send / 17 send-sync)
//
//	r1,r2  receiver identity (truncated 64-bit idR: lo, hi)
//	r3     payload length in bytes (0..12)
//	r4..r6 payload words
//	→ r0   status (see IPCStatus*)
//
// # Mailbox layout (at the receiver's BSS base, 28 bytes)
//
//	word 0  flags: 0 empty, 1 message present
//	word 1  sender identity lo
//	word 2  sender identity hi
//	word 3  payload length in bytes
//	word 4..6 payload
//
// Large transfers use proxy-established shared memory windows
// (SVC 20), accessible only to the two communicating tasks.
type IPCProxy struct {
	m      *machine.Machine
	rtm    *RTM
	driver *Driver

	sends   uint64
	dropped uint64
	windows []*SharedWindow
}

// Mailbox layout constants.
const (
	MailboxWords   = 7
	MailboxSize    = MailboxWords * 4
	MaxPayloadLen  = 12 // three register-carried words
	mailboxFlagOff = 0
)

// IPC status codes returned in r0.
const (
	IPCStatusOK         = 0
	IPCStatusNoReceiver = 1
	IPCStatusFull       = 2
	IPCStatusBadLen     = 3
	IPCStatusNoMailbox  = 4
)

// Proxy errors (native API).
var (
	ErrNoMailbox = errors.New("trusted: receiver has no mailbox (needs .bss >= 28)")
)

// NewIPCProxy creates the proxy.
func NewIPCProxy(m *machine.Machine, rtm *RTM, driver *Driver) *IPCProxy {
	return &IPCProxy{m: m, rtm: rtm, driver: driver}
}

// Sends returns the number of successful deliveries.
func (p *IPCProxy) Sends() uint64 { return p.sends }

// MailboxAddr returns the mailbox address of a registered task; false
// if the task reserves no BSS space for one. The mailbox occupies the
// first MailboxSize bytes of the task's BSS.
func MailboxAddr(e *RegistryEntry) (uint32, bool) {
	return mailboxBase(e)
}

// mailboxBase returns the mailbox address of a registered task; false
// if the task reserves no BSS space for one.
func mailboxBase(e *RegistryEntry) (uint32, bool) {
	if e.Image.BSSSize < MailboxSize {
		return 0, false
	}
	return e.Placement.BSSBase(), true
}

// Send performs an asynchronous delivery on behalf of sender (resolved
// from the interrupt origin). payload is at most MaxPayloadLen bytes.
// The returned status is the r0 value of the ABI.
func (p *IPCProxy) Send(k *rtos.Kernel, sender *rtos.TCB, recvTrunc uint64, payload []uint32, length uint32, sync bool) int {
	status, recvName := p.deliver(k, sender, recvTrunc, payload, length, sync)
	if p.m.Obs != nil {
		attrs := []trace.Attr{
			trace.Str("dir", "send"),
			trace.Num("status", uint64(status)),
			trace.Num("len", uint64(length)),
		}
		if recvName != "" {
			attrs = append(attrs, trace.Str("to", recvName))
		}
		if sync {
			attrs = append(attrs, trace.Str("mode", "sync"))
		}
		p.m.Emit(trace.SubIPC, trace.KindIPC, sender.Name, attrs...)
	}
	return status
}

// deliver is Send's body; it returns the ABI status and the resolved
// receiver name (empty if resolution failed).
func (p *IPCProxy) deliver(k *rtos.Kernel, sender *rtos.TCB, recvTrunc uint64, payload []uint32, length uint32, sync bool) (int, string) {
	// (1) Obtain the origin of the interrupt → sender identity.
	p.m.Charge(machine.CostIPCOrigin)
	var senderLo, senderHi uint32
	if se, ok := p.rtm.LookupByTask(sender.ID); ok {
		senderLo = uint32(se.TruncID)
		senderHi = uint32(se.TruncID >> 32)
	}
	p.m.Charge(machine.CostIPCLookupBase + uint64(p.rtm.Entries())*machine.CostIPCLookupPerTask)
	// (2) Resolve the receiver through the RTM registry.
	recv, scanned, err := p.rtm.LookupByTruncID(recvTrunc)
	p.m.Charge(machine.CostIPCLookupBase + uint64(scanned)*machine.CostIPCLookupPerTask)
	if err != nil {
		return IPCStatusNoReceiver, ""
	}
	recvName := recv.Task.Name
	if length > MaxPayloadLen {
		return IPCStatusBadLen, recvName
	}
	box, ok := mailboxBase(recv)
	if !ok {
		return IPCStatusNoMailbox, recvName
	}

	// (3) Write m and idS into the receiver's memory — only possible
	// from the proxy's protection context.
	var werr error
	p.m.WithExecContext(IPCProxyBase, func() {
		flags, err := p.m.Read32(box + mailboxFlagOff)
		if err != nil {
			werr = err
			return
		}
		if flags != 0 {
			werr = errMailboxFull
			return
		}
		words := [MailboxWords]uint32{1, senderLo, senderHi, length}
		copy(words[4:], payload)
		for i, w := range words {
			if err := p.m.Write32(box+uint32(i*4), w); err != nil {
				werr = err
				return
			}
		}
	})
	p.m.Charge(uint64(len(payload))*machine.CostIPCCopyPerWord + machine.CostIPCWriteSender)
	if werr != nil {
		p.dropped++
		if werr == errMailboxFull {
			return IPCStatusFull, recvName
		}
		return IPCStatusNoReceiver, recvName
	}

	// (4) Dispatch: wake a blocked receiver; for synchronous sends the
	// proxy "branches to R", modeled as an immediate yield of the
	// sender so the scheduler runs the receiver next (priority
	// permitting).
	p.m.Charge(machine.CostIPCDispatch)
	if recv.Task.State == rtos.StateBlocked {
		k.Unblock(recv.Task, rtos.EntryMessage)
	} else {
		recv.Task.EntryInfo = rtos.EntryMessage
	}
	if sync {
		k.YieldCurrent()
	}
	p.sends++
	return IPCStatusOK, recvName
}

var errMailboxFull = errors.New("trusted: mailbox full")

// HandleSend services the send SVCs using the register ABI.
func (p *IPCProxy) HandleSend(k *rtos.Kernel, t *rtos.TCB, sync bool) {
	m := k.M
	trunc := uint64(m.Reg(isa.R1)) | uint64(m.Reg(isa.R2))<<32
	length := m.Reg(isa.R3)
	payload := []uint32{m.Reg(isa.R4), m.Reg(isa.R5), m.Reg(isa.R6)}
	nwords := (length + 3) / 4
	if nwords > 3 {
		m.SetReg(isa.R0, IPCStatusBadLen)
		return
	}
	status := p.Send(k, t, trunc, payload[:nwords], length, sync)
	if !sync || status != IPCStatusOK {
		m.SetReg(isa.R0, uint32(status))
		return
	}
	// Synchronous path: the sender yielded; its status lands in the
	// saved frame so it is visible after resume.
	p.pokeSavedReg(t, isa.R0, IPCStatusOK)
}

// pokeSavedReg updates a register slot in a parked task's saved frame.
func (p *IPCProxy) pokeSavedReg(t *rtos.TCB, r isa.Reg, v uint32) {
	p.m.WithExecContext(IPCProxyBase, func() {
		p.m.Write32(t.SavedSP+uint32(r)*4, v)
	})
}

// HandleRecv services the blocking-receive SVC: if the mailbox already
// holds a message, return immediately with r0 = EntryMessage; otherwise
// block until a delivery wakes the task.
func (p *IPCProxy) HandleRecv(k *rtos.Kernel, t *rtos.TCB) {
	e, ok := p.rtm.LookupByTask(t.ID)
	if !ok {
		k.M.SetReg(isa.R0, IPCStatusNoReceiver)
		return
	}
	box, ok := mailboxBase(e)
	if !ok {
		k.M.SetReg(isa.R0, IPCStatusNoMailbox)
		return
	}
	var flags uint32
	p.m.WithExecContext(IPCProxyBase, func() {
		flags, _ = p.m.Read32(box + mailboxFlagOff)
	})
	if flags != 0 {
		if p.m.Obs != nil {
			p.m.Emit(trace.SubIPC, trace.KindIPC, t.Name, trace.Str("dir", "recv"), trace.Str("state", "ready"))
		}
		k.M.SetReg(isa.R0, rtos.EntryMessage)
		return
	}
	if p.m.Obs != nil {
		p.m.Emit(trace.SubIPC, trace.KindIPC, t.Name, trace.Str("dir", "recv"), trace.Str("state", "blocked"))
	}
	k.BlockCurrent()
}

// TransferMailbox moves a pending (undelivered) message from one
// task's mailbox to another's — the hand-over step of a runtime task
// update. Both mailboxes are touched only from the proxy's protection
// context. A clean (empty) source mailbox transfers nothing.
func (p *IPCProxy) TransferMailbox(from, to *RegistryEntry) error {
	src, ok := mailboxBase(from)
	if !ok {
		return nil // no mailbox, nothing to carry over
	}
	dst, ok := mailboxBase(to)
	if !ok {
		return ErrNoMailbox
	}
	var terr error
	p.m.WithExecContext(IPCProxyBase, func() {
		flags, err := p.m.Read32(src + mailboxFlagOff)
		if err != nil {
			terr = err
			return
		}
		if flags == 0 {
			return
		}
		for i := uint32(0); i < MailboxWords; i++ {
			v, err := p.m.Read32(src + i*4)
			if err != nil {
				terr = err
				return
			}
			if err := p.m.Write32(dst+i*4, v); err != nil {
				terr = err
				return
			}
		}
		terr = p.m.Write32(src+mailboxFlagOff, 0)
	})
	p.m.Charge(MailboxWords*machine.CostIPCCopyPerWord + machine.CostIPCOrigin)
	return terr
}

// SharedWindow is a proxy-established shared memory region between two
// tasks ("to efficiently transfer large amount of data between tasks,
// the IPC proxy sets up shared memory that is accessible only to the
// communicating tasks", §3).
type SharedWindow struct {
	Region eampu.Region
	A, B   rtos.TaskID
}

// SetupSharedMemory allocates a window from the task pool and grants
// the two tasks — and nobody else — read/write access to it. The first
// rule *claims* the window (making it protected memory), so code
// outside the two tasks is denied; the second is a grant for the peer.
// The window is torn down when either endpoint unloads.
func (p *IPCProxy) SetupSharedMemory(k *rtos.Kernel, a, b *rtos.TCB, size uint32) (*SharedWindow, error) {
	ea, ok := p.rtm.LookupByTask(a.ID)
	if !ok {
		return nil, fmt.Errorf("trusted: shared memory: %w", ErrUnknownIdentity)
	}
	eb, ok := p.rtm.LookupByTask(b.ID)
	if !ok {
		return nil, fmt.Errorf("trusted: shared memory: %w", ErrUnknownIdentity)
	}
	base, scanned, err := k.Alloc.Alloc(size)
	if err != nil {
		return nil, err
	}
	p.m.Charge(machine.CostAllocBase + uint64(scanned)*machine.CostAllocPerRegion)
	win := eampu.Region{Start: base, Size: size}
	for i, e := range []*RegistryEntry{ea, eb} {
		rule := eampu.Rule{
			Code:      e.Placement.Region(),
			Data:      win,
			Perm:      eampu.PermRW,
			GrantOnly: i > 0, // the first rule claims the window
			Owner:     e.Task.MPUOwner,
		}
		if _, err := p.driver.Configure(rule); err != nil {
			k.Alloc.Free(base)
			return nil, err
		}
	}
	w := &SharedWindow{Region: win, A: a.ID, B: b.ID}
	p.windows = append(p.windows, w)
	return w, nil
}

// ReleaseWindowsFor tears down every shared window one of whose
// endpoints is t: the memory returns to the pool (the EA-MPU rules are
// owned by the tasks and cleared with them).
func (p *IPCProxy) ReleaseWindowsFor(k *rtos.Kernel, t *rtos.TCB) int {
	kept := p.windows[:0]
	released := 0
	for _, w := range p.windows {
		if w.A != t.ID && w.B != t.ID {
			kept = append(kept, w)
			continue
		}
		k.Alloc.Free(w.Region.Start)
		// Clear the *peer's* rule too: its grant must not survive into
		// whatever the pool hands this region to next.
		for _, owner := range []rtos.TaskID{w.A, w.B} {
			if owner == t.ID {
				continue // this task's rules are cleared by the driver hook
			}
			p.clearWindowRule(uint32(owner), w.Region)
		}
		released++
	}
	p.windows = kept
	return released
}

// clearWindowRule removes the rule an owner holds over exactly this
// window region.
func (p *IPCProxy) clearWindowRule(owner uint32, win eampu.Region) {
	for i := 0; i < eampu.NumSlots; i++ {
		r, used := p.m.MPU.Slot(i)
		if used && !r.Locked && r.Owner == owner && r.Data == win {
			p.m.MPU.Clear(i)
			p.m.Charge(machine.CostWriteRule)
		}
	}
}
