package trusted

import (
	"encoding/binary"
	"fmt"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
)

// Components bundles the booted trusted software. It implements the
// kernel's SyscallHandler and TaskHooks, wiring the trusted services
// into the OS without the OS being able to bypass them.
type Components struct {
	Mux     *IntMux
	Driver  *Driver
	RTM     *RTM
	Proxy   *IPCProxy
	Attest  *Attest
	Storage *Storage

	// Gate is the static pre-load verification gate; nil (off) unless
	// core.Options.StrictVerify or BoundsAdmission arms it at boot.
	Gate *loader.Gate

	// BootReport is the secure-boot measurement chain over the trusted
	// components — the static root the dynamic measurements extend.
	BootReport sha1.Digest
}

// Trusted-layer SVC numbers (>= rtos.SVCUserBase).
const (
	SVCIPCSend     = rtos.SVCUserBase + 0 // 16: async send
	SVCIPCSendSync = rtos.SVCUserBase + 1 // 17: synchronous send
	SVCIPCRecv     = rtos.SVCUserBase + 2 // 18: blocking receive
	SVCGetID       = rtos.SVCUserBase + 3 // 19: own identity → r1 (lo), r2 (hi)
	SVCAttestLocal = rtos.SVCUserBase + 4 // 20: r1,r2 = id → r0 = loaded?
	SVCSealStore   = rtos.SVCUserBase + 5 // 21: r1 = slot, r2 = word → r0 status
	SVCSealLoad    = rtos.SVCUserBase + 6 // 22: r1 = slot → r0 status, r2 = word
	SVCGetMailbox  = rtos.SVCUserBase + 7 // 23: own mailbox address → r0 (0 if none)
	SVCShareMem    = rtos.SVCUserBase + 8 // 24: r1,r2 = peer id, r3 = size → r0 status, r1 window addr
)

// Seal syscall status codes.
const (
	SealStatusOK     = 0
	SealStatusDenied = 1
	SealStatusEmpty  = 2
)

// BootConfig parameterizes secure boot.
type BootConfig struct {
	// Provider is the attestation-key derivation context.
	Provider string
}

// Boot performs TyTAN's secure boot on an already-created kernel:
// instantiate the trusted components, measure them into the boot
// report, install the static (locked) EA-MPU rules, point the IDT at
// the Int Mux, enable the EA-MPU, and hook the components into the
// kernel. After Boot returns, the platform is in the state Figure 1
// depicts.
func Boot(k *rtos.Kernel, cfg BootConfig) (*Components, error) {
	m := k.M
	if m.MPU.Enabled() {
		return nil, fmt.Errorf("trusted: boot on an already-protected machine")
	}

	driver := NewDriver(m)
	rtm := NewRTM(m)

	// Static rules first (they are checked by nothing yet — the unit is
	// disabled until the end of boot, mirroring hardware reset state).
	allRAM := eampu.Region{Start: machine.RAMBase, Size: m.RAMSize()}
	trustedArea := eampu.Region{Start: IntMuxBase, Size: TrustedEnd - IntMuxBase}
	static := []eampu.Rule{
		// The IDT: readable by everyone, writable by no one. "The
		// integrity of the IDT is protected by the EA-MPU" (§4).
		{Data: idtRegion(), Perm: eampu.PermR, Locked: true, Owner: OwnerBoot},
		// The untrusted OS's own code region.
		{Code: OSRegion(), Data: OSRegion(), Perm: eampu.PermRX, Locked: true, Owner: OwnerBoot},
		// The trusted area: only trusted code executes there.
		{Code: trustedArea, Data: trustedArea, Perm: eampu.PermRX, Locked: true, Owner: OwnerBoot},
		// Int Mux: saves/restores contexts on any task stack.
		{Code: ComponentRegion(IntMuxBase), Data: allRAM, Perm: eampu.PermRW, GrantOnly: true, Locked: true, Owner: OwnerIntMux},
		// IPC proxy: the only component allowed to write into receiver
		// mailboxes.
		{Code: ComponentRegion(IPCProxyBase), Data: allRAM, Perm: eampu.PermRW, GrantOnly: true, Locked: true, Owner: OwnerProxy},
		// RTM: reads any task memory for measurement.
		{Code: ComponentRegion(RTMBase), Data: allRAM, Perm: eampu.PermR, GrantOnly: true, Locked: true, Owner: OwnerRTM},
		// Platform key: readable only by RTM / Remote Attest / Secure
		// Storage ("Access to this key is controlled by the EA-MPU and
		// only trusted software components have access to it", §3).
		{Code: cryptoRegion(), Data: keyStorePage(), Perm: eampu.PermR, Locked: true, Owner: OwnerCrypto},
	}
	for i, r := range static {
		m.Charge(machine.CostWriteRule)
		if err := m.MPU.Install(i, r); err != nil {
			return nil, fmt.Errorf("trusted: boot rule %d: %w", i, err)
		}
	}

	// Measure the trusted components into the boot report (secure boot
	// loads them and verifies integrity before anything else runs).
	report := measureBootChain(m)

	// The IDT routes every vector through the Int Mux.
	for v := 0; v < machine.IDTEntries; v++ {
		if err := m.SetIDTHandler(v, IntMuxBase); err != nil {
			return nil, err
		}
	}

	// Enforcement on.
	m.MPU.Enable()

	// Key-holding components derive their keys through the (now
	// enforced) EA-MPU path.
	attest, err := NewAttest(m, rtm, cfg.Provider)
	if err != nil {
		return nil, err
	}
	storage, err := NewStorage(m, rtm)
	if err != nil {
		return nil, err
	}

	c := &Components{
		Mux:        NewIntMux(m),
		Driver:     driver,
		RTM:        rtm,
		Proxy:      NewIPCProxy(m, rtm, driver),
		Attest:     attest,
		Storage:    storage,
		BootReport: report,
	}
	k.IntPath = c.Mux
	k.Syscalls = c
	k.Hooks = c
	return c, nil
}

// measureBootChain hashes the trusted component descriptors in load
// order, charging the measurement cost of each component's region. On
// the FPGA prototype this hashes the flash images; the simulator's
// components are native, so the descriptor (name, base, length) stands
// in for the bytes while the *cost* model still reflects hashing
// ComponentLen bytes per component.
func measureBootChain(m *machine.Machine) sha1.Digest {
	s := sha1.New()
	for _, comp := range []struct {
		name string
		base uint32
	}{
		{"eampu-driver", DriverBase},
		{"int-mux", IntMuxBase},
		{"ipc-proxy", IPCProxyBase},
		{"rtm", RTMBase},
		{"remote-attest", AttestBase},
		{"secure-storage", StorageBase},
	} {
		var desc [12]byte
		copy(desc[:], comp.name)
		binary.LittleEndian.PutUint32(desc[8:], comp.base)
		s.Write(desc[:])
		blocks := uint64(ComponentLen / sha1.BlockSize)
		m.Charge(machine.CostMeasureInit + blocks*machine.CostMeasurePerBlock)
	}
	return s.Sum()
}

// TaskExiting implements rtos.TaskHooks: tear down the task's EA-MPU
// rules and registry entry when it unloads.
func (c *Components) TaskExiting(k *rtos.Kernel, t *rtos.TCB) {
	c.Proxy.ReleaseWindowsFor(k, t)
	c.Driver.ReleaseTask(t)
	c.RTM.Unregister(t)
}

// HandleSyscall implements rtos.SyscallHandler for the trusted SVCs.
func (c *Components) HandleSyscall(k *rtos.Kernel, t *rtos.TCB, svc uint16) bool {
	m := k.M
	switch svc {
	case SVCIPCSend:
		c.Proxy.HandleSend(k, t, false)
	case SVCIPCSendSync:
		c.Proxy.HandleSend(k, t, true)
	case SVCIPCRecv:
		c.Proxy.HandleRecv(k, t)
	case SVCGetID:
		if e, ok := c.RTM.LookupByTask(t.ID); ok {
			m.SetReg(isa.R0, IPCStatusOK)
			m.SetReg(isa.R1, uint32(e.TruncID))
			m.SetReg(isa.R2, uint32(e.TruncID>>32))
		} else {
			m.SetReg(isa.R0, IPCStatusNoReceiver)
		}
		m.Charge(machine.CostIPCLookupBase)
	case SVCAttestLocal:
		trunc := uint64(m.Reg(isa.R1)) | uint64(m.Reg(isa.R2))<<32
		if c.Attest.LocalAttest(trunc) {
			m.SetReg(isa.R0, 1)
		} else {
			m.SetReg(isa.R0, 0)
		}
	case SVCShareMem:
		trunc := uint64(m.Reg(isa.R1)) | uint64(m.Reg(isa.R2))<<32
		size := m.Reg(isa.R3)
		peer, _, err := c.RTM.LookupByTruncID(trunc)
		if err != nil {
			m.SetReg(isa.R0, IPCStatusNoReceiver)
			break
		}
		win, werr := c.Proxy.SetupSharedMemory(k, t, peer.Task, size)
		if werr != nil {
			m.SetReg(isa.R0, IPCStatusFull)
			break
		}
		m.SetReg(isa.R0, IPCStatusOK)
		m.SetReg(isa.R1, win.Region.Start)
	case SVCSealStore:
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], m.Reg(isa.R2))
		if err := c.Storage.Store(t, m.Reg(isa.R1), word[:]); err != nil {
			m.SetReg(isa.R0, SealStatusDenied)
		} else {
			m.SetReg(isa.R0, SealStatusOK)
		}
	case SVCGetMailbox:
		if e, ok := c.RTM.LookupByTask(t.ID); ok {
			if box, ok := MailboxAddr(e); ok {
				m.SetReg(isa.R0, box)
			} else {
				m.SetReg(isa.R0, 0)
			}
		} else {
			m.SetReg(isa.R0, 0)
		}
		m.Charge(machine.CostIPCLookupBase)
	case SVCSealLoad:
		data, err := c.Storage.Load(t, m.Reg(isa.R1))
		switch {
		case err == nil && len(data) >= 4:
			m.SetReg(isa.R0, SealStatusOK)
			m.SetReg(isa.R2, binary.LittleEndian.Uint32(data))
		case err == ErrSealDenied:
			m.SetReg(isa.R0, SealStatusDenied)
		default:
			m.SetReg(isa.R0, SealStatusEmpty)
		}
	default:
		return false
	}
	return true
}
