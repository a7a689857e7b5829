package faultinject

import "fmt"

// RogueTargets tells the generator where the interesting boundaries
// are. Addresses are passed in by the caller (the chaos harness knows
// the platform layout); the generator itself stays layout-agnostic.
type RogueTargets struct {
	// TrustedAddr is an address inside a trusted region (e.g. the Int
	// Mux base): writing it must raise an EA-MPU violation.
	TrustedAddr uint32
	// ForeignAddr is an address inside another task's region: writing
	// it must equally violate, and so must banking a context frame
	// that starts there.
	ForeignAddr uint32
}

// RogueSource generates the assembly of an adversarial task: it behaves
// for a seed-chosen number of benign delay periods, then probes the
// isolation boundary one seed-chosen way — a write into a trusted
// region, a write into a foreign task's region, an undefined syscall,
// or a yield with SP forged so the context frame would land on the
// foreign address. Every probe must end with the kernel killing the
// task with a structured fault verdict; none may corrupt anything. kind
// names the probe drawn.
func RogueSource(rng *RNG, name string, t RogueTargets) (src, kind string) {
	periods := 2 + rng.Intn(4)
	delay := 30_000 + rng.Intn(50_000)

	kinds := []string{"trusted-write", "foreign-write", "bad-syscall", "forged-sp"}
	if t.ForeignAddr == 0 {
		kinds = []string{"trusted-write", "bad-syscall"}
	}
	kind = kinds[rng.Intn(len(kinds))]
	var probe string
	switch kind {
	case "trusted-write":
		probe = fmt.Sprintf("    ldi32 r1, %#x\n    st [r1+0], r1\n", t.TrustedAddr)
	case "foreign-write":
		probe = fmt.Sprintf("    ldi32 r1, %#x\n    st [r1+0], r1\n", t.ForeignAddr)
	case "bad-syscall":
		// Outside every defined service number; must exit as a bad
		// syscall, not be silently ignored.
		probe = fmt.Sprintf("    svc %d\n", 40+rng.Intn(200))
	case "forged-sp":
		// Aim SP so the 40-byte context frame would cover the foreign
		// address, then yield: the kernel banks the context there
		// unless it gates the frame span against the task's own stack.
		probe = fmt.Sprintf("    ldi32 r7, %#x\n    svc 0\n", t.ForeignAddr+40)
	}

	src = fmt.Sprintf(`
.task "%s"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r3, %d
loop:
    ldi32 r0, %d
    svc 2
    addi r3, -1
    cmpi r3, 0
    bne loop
%s    svc 1
`, name, periods, delay, probe)
	return src, kind
}
