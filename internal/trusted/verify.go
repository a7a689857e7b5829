package trusted

import "repro/internal/rtos"

// AllowedSyscalls returns the authoritative SVC allowlist of the booted
// platform: the kernel services plus the trusted services this layer
// registers at SVCUserBase. sverify.DefaultSyscalls mirrors this set
// with literal numbers (it cannot import this package);
// TestDefaultSyscallsMatchPlatform pins the two together.
func AllowedSyscalls() map[uint16]bool {
	m := map[uint16]bool{
		rtos.SVCYield:   true,
		rtos.SVCExit:    true,
		rtos.SVCDelay:   true,
		rtos.SVCPutChar: true,
		rtos.SVCGetTime: true,
	}
	for _, n := range []uint16{
		SVCIPCSend, SVCIPCSendSync, SVCIPCRecv, SVCGetID, SVCAttestLocal,
		SVCSealStore, SVCSealLoad, SVCGetMailbox, SVCShareMem,
	} {
		m[n] = true
	}
	return m
}
