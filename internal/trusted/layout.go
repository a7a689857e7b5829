// Package trusted implements TyTAN's trusted software components — the
// pieces Figure 1 marks as "trusted software" and secure boot loads and
// isolates:
//
//   - the EA-MPU driver (dynamic configuration of protection rules),
//   - the Int Mux (secure context save/wipe/restore around interrupts),
//   - the IPC proxy (authenticated inter-task messages),
//   - the RTM task (interruptible measurement, identity registry),
//   - Remote Attest (MAC-based quotes under a key derived from Kp),
//   - Secure Storage (sealing bound to task identity),
//   - and secure boot itself.
//
// Each component owns a code region in the platform's trusted area; its
// native Go implementation runs with the machine's execution context set
// inside that region, so every memory touch is authorized by exactly the
// EA-MPU rules secure boot installed — no ambient authority.
package trusted

import (
	"repro/internal/eampu"
	"repro/internal/machine"
)

// Trusted-area layout. The regions live in low RAM, above the IDT; on
// the FPGA prototype these would be the flash-resident trusted images.
const (
	// OSBase..OSEnd is the untrusted kernel's code region. The OS is
	// *not* trusted (the owner O controls it); it gets a region so the
	// EA-MPU can distinguish OS code from task code.
	OSBase = 0x0000_2000
	OSEnd  = 0x0000_6000

	// Trusted component code regions, 1 KiB each.
	IntMuxBase   = 0x0000_6000
	IPCProxyBase = 0x0000_6400
	RTMBase      = 0x0000_6800
	AttestBase   = 0x0000_6C00
	StorageBase  = 0x0000_7000
	DriverBase   = 0x0000_7400
	ComponentLen = 0x400
	// The last KiB below TrustedEnd is left to the secure-boot image;
	// no EA-MPU rule names it.

	// TrustedEnd is the first address past the trusted area.
	TrustedEnd = 0x0000_7C00
)

// Owner tags for EA-MPU rules installed by the trusted components
// themselves (task rules use the task ID, which stays far below these).
const (
	OwnerBoot   = 0xFFFF_0000 + iota // secure-boot static rules
	OwnerIntMux                      // Int Mux grants
	OwnerProxy                       // IPC proxy grants + shared windows
	OwnerRTM                         // RTM grants
	OwnerCrypto                      // key-store access rule
)

// OSRegion returns the untrusted OS code region.
func OSRegion() eampu.Region { return eampu.Region{Start: OSBase, Size: OSEnd - OSBase} }

// ComponentRegion returns the code region of the trusted component based
// at base.
func ComponentRegion(base uint32) eampu.Region {
	return eampu.Region{Start: base, Size: ComponentLen}
}

// cryptoRegion is the contiguous span of the components allowed to read
// the platform key: RTM, Remote Attest and Secure Storage.
func cryptoRegion() eampu.Region {
	return eampu.Region{Start: RTMBase, Size: StorageBase + ComponentLen - RTMBase}
}

// keyStorePage is the MMIO region of the platform-key device.
func keyStorePage() eampu.Region {
	return eampu.Region{Start: machine.DeviceAddr(machine.PageKeyStore), Size: machine.MMIOWindow}
}

// idtRegion is the interrupt descriptor table's memory.
func idtRegion() eampu.Region {
	return eampu.Region{Start: machine.IDTBase, Size: machine.IDTSize}
}
