package sverify

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/telf"
)

// This file exports the verifier's control-flow graph as a reusable
// artifact. The verifier itself only needs block *counts*, but the
// block structure — stable IDs, leader offsets, successor edges — is
// substrate for other consumers: the simulator's superblock compiler
// mirrors the same block discipline over loaded memory, and Tiny-CFA-
// style control-flow attestation needs exactly this edge table to hash
// paths against.

// BasicBlock is one reachable basic block of an image.
type BasicBlock struct {
	// ID is the block's stable identifier: blocks are numbered in
	// ascending leader-offset order, so the same image always yields the
	// same IDs.
	ID int `json:"id"`
	// Start is the image-relative offset of the block's leader.
	Start uint32 `json:"start"`
	// End is the offset one past the block's last instruction.
	End uint32 `json:"end"`
	// Insns is the number of instructions in the block.
	Insns int `json:"insns"`
	// Term is the opcode that ends the block, or isa.OpNOP when the
	// block ends by running into the next leader.
	Term isa.Op `json:"-"`
	// Succs are the IDs of the statically known successor blocks, in
	// ascending order. Indirect transfers (JR, and CALLR's callee)
	// contribute no edges; CALL contributes both the callee and the
	// return point.
	Succs []int `json:"succs,omitempty"`
}

// CFG is the control-flow graph of one image's reachable code.
type CFG struct {
	// Entry is the ID of the entry block.
	Entry int `json:"entry"`
	// Blocks holds the blocks indexed by ID.
	Blocks []BasicBlock `json:"blocks"`
}

// Block returns the block whose ID is id.
func (g *CFG) Block(id int) *BasicBlock { return &g.Blocks[id] }

// BuildCFG constructs the reachable control-flow graph of an image that
// already passed telf.Validate, without running the finding checks. The
// block structure is exactly what Verify counts in Report.Blocks.
func BuildCFG(im *telf.Image, cfg Config) *CFG {
	v := &verifier{
		im:       im,
		cfg:      cfg,
		findings: make(map[findingKey]Finding),
	}
	v.layout()
	v.sweep()
	v.traverse()
	return v.buildCFG()
}

// buildCFG materializes blocks and edges from the traversal results.
func (v *verifier) buildCFG() *CFG {
	leaders := v.leaders()
	starts := make([]uint32, 0, len(leaders))
	for off := range leaders {
		starts = append(starts, off)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	id := make(map[uint32]int, len(starts))
	for i, off := range starts {
		id[off] = i
	}

	g := &CFG{Blocks: make([]BasicBlock, len(starts))}
	if e, ok := id[v.im.Entry]; ok {
		g.Entry = e
	}
	for i, start := range starts {
		b := BasicBlock{ID: i, Start: start, End: start}
		off := start
		var last decoded
		for {
			d, ok := v.reach[off]
			if !ok || !d.ok {
				// Undecodable or unreached: the block ends here with no
				// static successors (execution faults).
				break
			}
			b.Insns++
			b.End = off + d.size
			last = d
			if isTerminator(d.in.Op) {
				b.Term = d.in.Op
				break
			}
			next := off + d.size
			if leaders[next] {
				// Ran into the next leader: plain fallthrough edge.
				break
			}
			off = next
		}
		if last.ok {
			b.Succs = v.blockSuccs(b.End-last.size, last, leaders, id)
		}
		g.Blocks[i] = b
	}
	return g
}

// blockSuccs resolves the static successor edges of the block whose last
// instruction is d at off. It mirrors succs without re-emitting findings.
func (v *verifier) blockSuccs(off uint32, d decoded, leaders map[uint32]bool, id map[uint32]int) []int {
	next := off + d.size
	var out []int
	addOff := func(t uint32) {
		if bid, ok := id[t]; ok {
			out = append(out, bid)
		}
	}
	target := func() (uint32, bool) {
		t := int64(off) + int64(d.size) + 4*int64(d.in.Imm)
		if t < 0 || t >= int64(v.textLen) {
			return 0, false
		}
		return uint32(t), true
	}
	switch d.in.Op {
	case isa.OpHLT, isa.OpRET, isa.OpJR:
		// No static successors.
	case isa.OpJMP:
		if t, ok := target(); ok {
			addOff(t)
		}
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU, isa.OpCALL:
		addOff(next)
		if t, ok := target(); ok {
			addOff(t)
		}
	case isa.OpCALLR:
		addOff(next) // assume the callee returns
	default:
		// Block ended by running into the next leader.
		addOff(next)
	}
	sort.Ints(out)
	// Dedup (a conditional branch whose target is its own fallthrough).
	n := 0
	for i, s := range out {
		if i == 0 || s != out[n-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}
