package sverify_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/sverify"
)

// boundRefusals is one small hand-written image per bound-engine refusal
// the generator corpus never reaches: each must report its named
// Bounds reason. The counters in the ceiling probes are sized so the
// certified count, not the code, crosses the ceiling:
//   - recursion frames are the counter's entry value plus 2 (the
//     prover's margin), each nested frame costing its 4-byte return
//     address;
//   - the nested loops multiply two bounds of 2^20 + 2 by an iteration
//     cost of several cycles, past 2^40.
var boundRefusals = []struct {
	name, reason, src string
}{
	{"mutual-recursion", "mutual recursion", `
.task "refuse-mutual-recursion"
.stack 64
.text
main:
	call a
	hlt
a:
	call b
	ret
b:
	call a
	ret
`},
	{"multi-entry-loop", "loop with multiple entry points", `
.task "refuse-multi-entry-loop"
.stack 64
.text
main:
	ldi r1, 10
	cmpi r2, 0
	beq mid
top:
	addi r1, -1
mid:
	cmpi r1, 0
	bne top
	hlt
`},
	{"loop-unprovable", "loop bound not provable", `
.task "refuse-loop-unprovable"
.stack 64
.text
main:
	jmp main
`},
	{"jump-unresolved", "indirect jump target unresolved", `
.task "refuse-jump-unresolved"
.stack 64
.text
main:
	jr r3
`},
	{"unbalanced-ret", "unbalanced frame at RET", `
.task "refuse-unbalanced-ret"
.stack 64
.text
main:
	call f
	hlt
f:
	push r1
	ret
`},
	{"pop-sp", "POP into SP", `
.task "refuse-pop-sp"
.stack 64
.text
main:
	push r1
	pop sp
	hlt
`},
	{"stack-grows", "stack depth grows without bound around a loop", `
.task "refuse-stack-grows"
.stack 64
.text
main:
	ldi r1, 10
loop:
	push r1
	addi r1, -1
	cmpi r1, 0
	bne loop
	hlt
`},
	{"recursive-entry", "recursive entry function", `
.task "refuse-recursive-entry"
.stack 64
.text
main:
	cmpi r2, 0
	beq done
	addi r2, -1
	call main
done:
	hlt
`},
	{"stack-ceiling", "stack bound exceeds the model ceiling", `
.task "refuse-stack-ceiling"
.stack 64
.text
main:
	ldi32 r2, 0x1ffffffc
	push r1
	call f
	pop r1
	hlt
f:
	cmpi r2, 0
	beq done
	addi r2, -1
	call f
done:
	ret
`},
	{"recursive-stack-ceiling", "recursive stack bound exceeds the model ceiling", `
.task "refuse-recursive-stack-ceiling"
.stack 64
.text
main:
	ldi32 r2, 0x40000000
	call f
	hlt
f:
	cmpi r2, 0
	beq done
	addi r2, -1
	call f
done:
	ret
`},
	{"cycle-ceiling", "cycle bound exceeds the model ceiling", `
.task "refuse-cycle-ceiling"
.stack 64
.text
main:
	ldi32 r1, 0x100000
outer:
	ldi32 r2, 0x100000
inner:
	addi r2, -1
	cmpi r2, 0
	bne inner
	addi r1, -1
	cmpi r1, 0
	bne outer
	hlt
`},
	{"recursive-cycle-ceiling", "recursive cycle bound exceeds the model ceiling", `
.task "refuse-recursive-cycle-ceiling"
.stack 64
.text
main:
	ldi32 r2, 0x2000000
	call f
	hlt
f:
	cmpi r2, 0
	beq done
	addi r2, -1
	call f
	ret
done:
	ldi32 r3, 0x10000
spin:
	addi r3, -1
	cmpi r3, 0
	bne spin
	ret
`},
}

// TestBoundRefusals pins one image per bound-engine refusal outside the
// generator corpus: each reports its named reason, and the "verify-
// bound-refusals" row holds every JSON and text report byte for byte.
func TestBoundRefusals(t *testing.T) {
	contract.Check(t, contract.Row{Name: "verify-bound-refusals", Produce: func(t *testing.T, _ contract.Point) []byte {
		var out bytes.Buffer
		for _, c := range boundRefusals {
			rep := sverify.Verify(assembleBoundsProbe(t, c.src), sverify.Config{})
			if !hasReason(rep.Bounds, c.reason) {
				t.Errorf("%s: reasons %q lack %q", c.name, rep.Bounds.Reasons, c.reason)
			}
			if err := rep.WriteJSON(&out); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteText(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}})
}

// hasReason reports whether b lists reason at some offset ("0x0012:
// reason").
func hasReason(b *sverify.Bounds, reason string) bool {
	if b == nil {
		return false
	}
	for _, r := range b.Reasons {
		if _, why, ok := strings.Cut(r, ": "); ok && why == reason {
			return true
		}
	}
	return false
}
