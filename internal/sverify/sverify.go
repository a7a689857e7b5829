// Package sverify statically verifies TELF task images before they are
// loaded: it decodes the code section into a control-flow graph over the
// internal/isa instruction set and checks, without running a single
// simulated cycle, the properties the platform otherwise discovers only
// at runtime — illegal instructions, branches that leave the code
// region or land inside a two-word LDI32, memory accesses the EA-MPU
// would deny, unknown service calls, unbalanced stack discipline.
//
// TyTAN's secure loading (§4) relies on the EA-MPU to catch bad
// accesses *after the fact*; Tiny-CFA-style control-flow knowledge is
// the natural complement: a production loader does not accept opaque
// bytes. The verifier is the pre-measurement gate (see internal/loader
// and internal/trusted) and the analysis engine of cmd/tytan-lint.
//
// # Soundness contract
//
// The verifier is deliberately one-sided:
//
//   - A finding marked Definite is guaranteed to fault when the flagged
//     instruction executes along the must-execute prefix from the entry
//     point (the differential test in diff_test.go checks exactly this
//     against the simulator).
//   - A clean report does NOT prove the task correct — indirect jumps
//     (JR/CALLR) and addresses computed from memory are out of scope
//     and reported as warnings, never errors. The EA-MPU remains the
//     runtime authority; the verifier only refuses images that are
//     provably broken.
package sverify

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/telf"
)

// Severity ranks a finding.
type Severity uint8

// Severities, from benign to fatal.
const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// Finding is one verification diagnostic, anchored to an image offset.
type Finding struct {
	// Off is the image-relative offset the finding is about (an
	// instruction start for code findings, a relocation offset for
	// relocation findings).
	Off uint32 `json:"off"`
	// Sev is the severity: Error findings make the strict gate refuse
	// the image.
	Sev Severity `json:"-"`
	// SevName is Sev rendered for the JSON report.
	SevName string `json:"severity"`
	// Code is the stable machine-readable check identifier
	// (e.g. "invalid-opcode"); see the catalogue in DESIGN.md.
	Code string `json:"code"`
	// Msg is the human-readable explanation.
	Msg string `json:"msg"`
	// Disasm is the disassembly of the offending instruction ("" for
	// image-level findings).
	Disasm string `json:"disasm,omitempty"`
	// Definite marks findings on the must-execute prefix from the entry
	// point whose fault is guaranteed: the differential soundness test
	// asserts these images actually fault under the simulator.
	Definite bool `json:"definite,omitempty"`
}

// String renders the finding on one line.
func (f Finding) String() string {
	s := fmt.Sprintf("%#06x %-7s %-18s %s", f.Off, f.Sev, f.Code, f.Msg)
	if f.Disasm != "" {
		s += fmt.Sprintf("  [%s]", f.Disasm)
	}
	if f.Definite {
		s += "  (definite)"
	}
	return s
}

// Config parameterizes verification.
type Config struct {
	// RAMSize is the modeled RAM size in bytes (0 = the machine
	// default). Relocated accesses at or beyond this offset are
	// guaranteed bus errors regardless of the load address.
	RAMSize uint32
	// Syscalls is the allowlist of SVC numbers (nil = DefaultSyscalls).
	// The trusted layer passes the authoritative platform set.
	Syscalls map[uint16]bool
}

// DefaultSyscalls returns the platform's default SVC allowlist: the
// kernel services (yield, exit, delay, putchar, gettime) plus the
// trusted services delegated at SVCUserBase (16..24: IPC, attestation,
// sealed storage, mailbox, shared memory). The literal numbers mirror
// internal/rtos and internal/trusted, which this package must not
// import (they depend on internal/loader, which depends on sverify);
// TestDefaultSyscallsMatchPlatform pins the two sets together.
func DefaultSyscalls() map[uint16]bool {
	m := map[uint16]bool{0: true, 1: true, 2: true, 5: true, 6: true}
	for n := uint16(16); n <= 24; n++ {
		m[n] = true
	}
	return m
}

// Report is the typed result of verifying one image.
type Report struct {
	// Name is the image's task name.
	Name string `json:"name"`
	// TextSize and DataSize are the section sizes in bytes.
	TextSize uint32 `json:"text_size"`
	DataSize uint32 `json:"data_size"`
	// Insns is the number of instructions reachable from the entry
	// point; Blocks the number of basic blocks they form.
	Insns  int `json:"insns"`
	Blocks int `json:"blocks"`
	// Findings are the diagnostics, sorted by (offset, code).
	Findings []Finding `json:"findings"`
	// Bounds is the static resource-bound section: worst-case stack
	// depth and worst-case burst cycles, or an explicit Unbounded
	// verdict with reasons (see resbound.go).
	Bounds *Bounds `json:"bounds"`
}

// Errors returns the Error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev == Error {
			out = append(out, f)
		}
	}
	return out
}

// Counts returns the number of findings per severity (info, warning,
// error).
func (r *Report) Counts() (info, warn, errs int) {
	for _, f := range r.Findings {
		switch f.Sev {
		case Info:
			info++
		case Warning:
			warn++
		case Error:
			errs++
		}
	}
	return
}

// Verify statically analyzes an image that already passed
// telf.Validate. It never mutates the image and never panics on
// malformed code — malformation is what the findings report.
func Verify(im *telf.Image, cfg Config) *Report {
	if cfg.RAMSize == 0 {
		cfg.RAMSize = machine.DefaultRAMSize
	}
	if cfg.Syscalls == nil {
		cfg.Syscalls = DefaultSyscalls()
	}
	v := &verifier{
		im:       im,
		cfg:      cfg,
		findings: make(map[findingKey]Finding),
	}
	v.layout()
	v.sweep()
	v.checkEntry()
	v.checkRelocs()
	v.traverse()
	v.interpret()
	bounds := v.computeBounds()
	v.markDefinite()

	rep := &Report{
		Bounds:   bounds,
		Name:     im.Name,
		TextSize: uint32(len(im.Text)),
		DataSize: uint32(len(im.Data)),
		Insns:    len(v.reach),
		Blocks:   v.countBlocks(),
	}
	for _, f := range v.findings {
		f.SevName = f.Sev.String()
		rep.Findings = append(rep.Findings, f)
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		return a.Code < b.Code
	})
	return rep
}
