package main

// The "update" subcommand family: the build-system side of the secure
// update path. "update sign" wraps a TELF image in a signed, versioned
// update manifest under the platform provider's update key; "update
// info" inspects a package without any key material. The signed output
// is what -update applies mid-run and what a provisioning flow would
// ship to devices.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/rtos"
	"repro/internal/telf"
)

// applyMidRunUpdate applies a signed package to the loaded task that
// carries the package's task name, reports the decision, and keeps the
// CLI's per-task deadline registered across the identity change.
func applyMidRunUpdate(p *core.Platform, s *telf.SignedImage, pkg []byte, byName map[string]rtos.TaskID, deadline uint64, out io.Writer) error {
	id, ok := byName[s.Image.Name]
	if !ok {
		return fmt.Errorf("-update: no loaded task named %q", s.Image.Name)
	}
	rep, err := p.ApplyUpdate(id, pkg, s.Manifest.TaskVersion)
	if err != nil {
		return fmt.Errorf("-update: %w", err)
	}
	fmt.Fprintf(out, "update: %q version %d -> %d, new task %d, identity %x, downtime %d cycles\n",
		s.Image.Name, rep.FromVersion, rep.ToVersion, rep.New, rep.NewIdentity, rep.DowntimeCycles)
	if deadline > 0 {
		if err := p.RegisterDeadline(rep.New, deadline); err != nil {
			return err
		}
	}
	byName[s.Image.Name] = rep.New
	return nil
}

// runUpdateCmd dispatches "tytan-sim update <verb> ...".
func runUpdateCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("update: want a verb: sign or info")
	}
	switch args[0] {
	case "sign":
		return runUpdateSign(args[1:], out)
	case "info":
		return runUpdateInfo(args[1:], out)
	}
	return fmt.Errorf("update: unknown verb %q (want sign or info)", args[0])
}

// runUpdateSign signs one TELF image as an update package.
func runUpdateSign(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("update sign", flag.ContinueOnError)
	version := fs.Uint64("version", 0, "task version sealed into the manifest (must exceed the device's sealed counter to be accepted)")
	provider := fs.String("provider", "", "provider whose update key signs the package (default: the platform default provider)")
	outPath := fs.String("o", "", `output path (default: input path + ".upd")`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("update sign: want exactly one TELF image, got %d args", fs.NArg())
	}
	if *version == 0 {
		return fmt.Errorf("update sign: -version must be at least 1 (0 never exceeds a fresh counter)")
	}
	in := fs.Arg(0)
	blob, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	// The raw decode is deliberate: this is the build side, consuming an
	// unsigned image in order to produce the signed package.
	im, err := telf.Decode(blob) //tytan:allow rawdecode
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	// Boot a platform to derive the update key exactly as the device
	// will — same storage-rooted platform key, same provider derivation —
	// so a package signed here verifies on any default-keyed simulator.
	p, err := core.NewPlatform(core.Options{Provider: *provider})
	if err != nil {
		return err
	}
	defer p.Close()
	pkg, err := p.SignUpdate(im, *version)
	if err != nil {
		return err
	}
	dst := *outPath
	if dst == "" {
		dst = in + ".upd"
	}
	if err := os.WriteFile(dst, pkg, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "signed %q version %d for provider %q: %d bytes -> %s\n",
		im.Name, *version, p.Provider(*provider).Name(), len(pkg), dst)
	return nil
}

// runUpdateInfo describes update packages without verifying signatures
// (structure and payload digest are still checked).
func runUpdateInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("update info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("update info: want at least one package file")
	}
	for _, path := range fs.Args() {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := telf.DecodeSigned(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		im := s.Image
		fmt.Fprintf(out, "%s: task %q version %d\n", path, im.Name, s.Manifest.TaskVersion)
		fmt.Fprintf(out, "  payload %d bytes, digest %x\n", len(s.Payload()), s.Manifest.Digest)
		fmt.Fprintf(out, "  text %d data %d bss %d stack %d, entry %#x\n",
			len(im.Text), len(im.Data), im.BSSSize, im.StackSize, im.Entry)
	}
	return nil
}
