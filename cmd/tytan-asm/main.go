// Command tytan-asm is the task tool chain's assembler: it translates
// assembly source (see internal/asm for the syntax) into relocatable
// TELF images that the platform's loader can place anywhere in task
// memory. Static verification of a source is tytan-lint task.s.
//
// Usage:
//
//	tytan-asm task.s              # assemble to task.telf
//	tytan-asm -o out.telf task.s  # explicit output
//	tytan-asm -d task.telf        # disassemble an image
//	tytan-asm -id task.telf       # print the image's expected identity
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/telf"
	"repro/internal/trusted"
)

func main() {
	out := flag.String("o", "", "output file (default: input with .telf extension)")
	disasm := flag.Bool("d", false, "disassemble a TELF image instead of assembling")
	printID := flag.Bool("id", false, "print the expected task identity of a TELF image")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tytan-asm [-o out.telf] [-d|-id] <file>")
		os.Exit(2)
	}
	in := flag.Arg(0)
	if err := run(in, *out, *disasm, *printID); err != nil {
		fmt.Fprintln(os.Stderr, "tytan-asm:", err)
		os.Exit(1)
	}
}

func run(in, out string, disasm, printID bool) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if disasm || printID {
		im, err := telf.Decode(data)
		if err != nil {
			return err
		}
		if printID {
			id := trusted.IdentityOfImage(im)
			fmt.Printf("%x  %s (trunc %016x)\n", id, im.Name, id.TruncatedID())
			return nil
		}
		fmt.Printf("task %q  entry %#x  text %d B  data %d B  bss %d B  stack %d B  relocs %d\n",
			im.Name, im.Entry, len(im.Text), len(im.Data), im.BSSSize, im.StackSize, len(im.Relocs))
		fmt.Println(".text")
		fmt.Print(isa.Disassemble(0, im.Text))
		for _, r := range im.Relocs {
			fmt.Printf("reloc %s at +%#x\n", r.Kind, r.Offset)
		}
		return nil
	}
	im, err := asm.Assemble(string(data))
	if err != nil {
		return err
	}
	blob, err := im.Encode()
	if err != nil {
		return err
	}
	if out == "" {
		out = strings.TrimSuffix(in, ".s") + ".telf"
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes (text %d, data %d, %d relocs)\n",
		out, len(blob), len(im.Text), len(im.Data), len(im.Relocs))
	return nil
}
