// Task update: replacing a running secure task with a new binary
// *without a reboot* — the paper's §8 future work ("a mechanism to
// update tasks at runtime ... to meet the high availability
// requirements of embedded applications"), implemented by the signed,
// rollback-protected update service.
//
// A metering task v1 runs and seals its odometer state. The vendor
// signs v2 under its update key, and the platform applies it while v1
// keeps running: the replacement is verified, loaded, measured,
// isolated and its version counter sealed first; the switch-over
// (sealed-state migration + mailbox transfer + schedule) takes a
// bounded, sub-millisecond window.
//
//	go run ./examples/taskupdate
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
)

func meter(version int) string {
	return fmt.Sprintf(`
.task "meter"
.entry main
.stack 192
.bss 28
.text
main:
    ldi r1, %d          ; ASCII digit of the version
loop:
    svc 5               ; print version digit each activation
    ldi r0, 30000
    svc 2
    jmp loop
`, '0'+version)
}

func main() {
	platform, err := core.NewPlatform(core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	v1, err := asm.Assemble(meter(1))
	if err != nil {
		log.Fatal(err)
	}
	v2, err := asm.Assemble(meter(2))
	if err != nil {
		log.Fatal(err)
	}
	pkg, err := platform.SignUpdate(v2, 2)
	if err != nil {
		log.Fatal(err)
	}

	old, oldID, err := platform.LoadTaskSync(v1, core.Secure, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meter v1 running, identity %x\n", oldID)

	// The task accumulates sealed state.
	if err := platform.Seal(old.ID, 1, []byte("odometer=123456km")); err != nil {
		log.Fatal(err)
	}
	if err := platform.Run(10 * core.DefaultTickPeriod); err != nil {
		log.Fatal(err)
	}
	before := len(platform.Output())

	// Apply the signed update, migrating storage slot 1 to the new
	// identity.
	res, err := platform.ApplyUpdate(old.ID, pkg, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("updated to version %d, identity %x\n", res.ToVersion, res.NewIdentity)
	fmt.Printf("switch-over downtime: %d cycles (%.0f µs at %d MHz)\n",
		res.DowntimeCycles,
		float64(machine.CyclesToNanos(res.DowntimeCycles))/1000,
		machine.ClockHz/1_000_000)

	if err := platform.Run(10 * core.DefaultTickPeriod); err != nil {
		log.Fatal(err)
	}
	after := platform.Output()[before:]
	fmt.Printf("output before update ends with v1 digits: %q\n", platform.Output()[:before])
	fmt.Printf("output after update is all v2 digits:     %q\n", after)

	// The migrated state unseals under the *new* identity.
	state, err := platform.Unseal(res.New, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v2 unsealed migrated state: %q ✔\n", state)

	// And the old identity is gone from the platform.
	if _, err := platform.Identity(old.ID); err != nil {
		fmt.Println("v1 no longer present ✔")
	}
}
