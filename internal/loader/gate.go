package loader

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sverify"
	"repro/internal/telf"
)

// ErrVerifyRejected wraps every refusal of the static verification
// gate; callers test it with errors.Is.
var ErrVerifyRejected = errors.New("loader: image rejected by static verification")

// ErrBoundsRejected wraps every refusal of the resource-bound admission
// check; callers test it with errors.Is (and errors.As on *BoundsError
// for the typed reason).
var ErrBoundsRejected = errors.New("loader: image rejected by resource-bound admission")

// ContextFrameBytes is the saved context frame the kernel pushes below a
// task's live stack pointer on every pre-emption (r0..r7 + EIP +
// EFLAGS). The admission check adds it to the static stack bound: a task
// may be interrupted at its point of deepest stack use. The rtos package
// owns the layout; rtos.ContextFrameBytes is pinned to this constant by
// test (the loader cannot import rtos — rtos imports the loader).
const ContextFrameBytes = (isa.NumRegs + 2) * 4

// BoundsError is a typed resource-bound admission refusal. Reason is a
// stable token ("stack-unbounded", "stack-over-reservation",
// "cycles-unbounded", "cycle-over-budget") surfaced as the reason attr
// of the verify-denied trace event.
type BoundsError struct {
	Name   string
	Reason string
	Detail string
}

// Error formats the refusal.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("loader: image rejected by resource-bound admission: %s: %s: %s",
		e.Name, e.Reason, e.Detail)
}

// Unwrap lets errors.Is(err, ErrBoundsRejected) match.
func (e *BoundsError) Unwrap() error { return ErrBoundsRejected }

// Gate is the opt-in pre-load verification gate: when armed (see
// core.Options.StrictVerify and BoundsAdmission),
// the loader service runs the static verifier over every image before
// allocating memory for it, and refuses to measure-and-install images
// with Error findings. Verification-before-measurement matters: a task
// that would be killed on its first instruction should never enter the
// RTM identity registry in the first place.
type Gate struct {
	// Cfg parameterizes verification (RAM size, syscall allowlist).
	Cfg sverify.Config

	// Bounds additionally arms the resource-bound admission check: an
	// image is refused unless its static worst-case stack depth (plus
	// the pre-emption context frame) provably fits its declared stack
	// reservation, and — when a cycle budget is declared for it — its
	// static worst-case burst provably fits the budget.
	Bounds bool

	// Budgets maps image names to their declared per-activation cycle
	// budget (the share of a scheduling period the task may consume).
	// Images without an entry carry no cycle constraint; their stack
	// bound is still checked.
	Budgets map[string]uint64
}

// Check verifies the image. On Error findings it returns the report
// alongside an error wrapping ErrVerifyRejected; with Bounds armed, an
// image whose resource bounds cannot be certified within its
// reservations fails with a *BoundsError wrapping ErrBoundsRejected.
// The report is always non-nil so callers can surface the findings.
func (g *Gate) Check(im *telf.Image) (*sverify.Report, error) {
	rep := sverify.Verify(im, g.Cfg)
	if errs := rep.Errors(); len(errs) > 0 {
		return rep, fmt.Errorf("%w: %s: %d error finding(s), first: %s",
			ErrVerifyRejected, im.Name, len(errs), errs[0])
	}
	if g.Bounds {
		if err := g.checkBounds(im, rep.Bounds); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkBounds applies the admission policy to the certified bounds.
func (g *Gate) checkBounds(im *telf.Image, b *sverify.Bounds) error {
	if b == nil {
		return &BoundsError{Name: im.Name, Reason: "stack-unbounded",
			Detail: "verifier produced no resource bounds"}
	}
	if !b.StackBounded {
		return &BoundsError{Name: im.Name, Reason: "stack-unbounded",
			Detail: "worst-case stack depth is not statically bounded"}
	}
	reservation := uint64((im.StackSize + 3) &^ 3)
	if need := uint64(b.StackBytes) + ContextFrameBytes; need > reservation {
		return &BoundsError{Name: im.Name, Reason: "stack-over-reservation",
			Detail: fmt.Sprintf("worst-case stack %d bytes + %d context frame exceeds the %d-byte reservation",
				b.StackBytes, ContextFrameBytes, reservation)}
	}
	budget, declared := g.Budgets[im.Name]
	if !declared {
		return nil
	}
	if !b.CyclesBounded {
		return &BoundsError{Name: im.Name, Reason: "cycles-unbounded",
			Detail: "worst-case burst is not statically bounded"}
	}
	if b.Cycles > budget {
		return &BoundsError{Name: im.Name, Reason: "cycle-over-budget",
			Detail: fmt.Sprintf("worst-case burst %d cycles exceeds the declared %d-cycle budget",
				b.Cycles, budget)}
	}
	return nil
}

// Cost is the modeled cycle cost of verifying the image: a software
// pass over the text section, linear in its word count. The bound
// engine, when armed, is a second pass with its own base and per-word
// costs.
func (g *Gate) Cost(im *telf.Image) uint64 {
	c := machine.CostVerifyBase + uint64(len(im.Text)/4)*machine.CostVerifyPerWord
	if g.Bounds {
		c += machine.CostBoundsBase + uint64(len(im.Text)/4)*machine.CostBoundsPerWord
	}
	return c
}
