// Command tytan-attest demonstrates the remote attestation protocol
// end to end: a verifier (who knows the published task binary and holds
// the provisioned attestation key) challenges the device with a nonce;
// the device's Remote Attest component quotes the task's measured
// identity; the verifier checks the MAC and the identity.
//
// The demo then shows the two failure cases: a tampered task binary
// (identity mismatch) and a replayed quote (nonce mismatch).
//
// Usage:
//
//	tytan-attest                       # in-process demo with the built-in task
//	tytan-attest task.telf             # attest a task image of your own
//	tytan-attest -listen :7845         # device mode: boot, load, answer challenges
//	tytan-attest -dial  HOST:7845 task.telf
//	                                   # verifier mode: challenge a remote device
//	tytan-attest -serve :7846 good.telf ...
//	                                   # verifier-plane server: appraise
//	                                   # device-initiated sessions against
//	                                   # the published binaries
//	tytan-attest -join HOST:7846 -device dev-0001 task.telf
//	                                   # device mode: dial a plane and attest
//
// All modes speak the internal/remote wire protocol, so the halves can
// run as separate processes. -serve runs a fleet verifier plane
// (internal/fleet): hellos from unknown devices are refused unless
// -auto-enroll, failed appraisals burn a per-device budget, and a
// device past its budget is quarantined — later hellos are refused at
// the door. With -metrics ADDR the plane additionally serves its live
// Prometheus exposition over HTTP at /metrics.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trusted"
)

const demoTask = `
.task "sensor-fw"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r6, 0xF0000200
loop:
    ld r0, [r6+0]
    ldi r0, 32000
    svc 2
    jmp loop
`

func main() {
	listen := flag.String("listen", "", "device mode: serve attestation challenges on this address")
	dial := flag.String("dial", "", "verifier mode: challenge the device at this address")
	serve := flag.String("serve", "", "plane mode: serve device-initiated attestation on this address")
	join := flag.String("join", "", "device mode: dial the verifier plane at this address and attest")
	device := flag.String("device", "dev-0000", "device name for -join")
	provider := flag.String("provider", "oem", "attestation-key provider context")
	autoEnroll := flag.Bool("auto-enroll", false, "plane mode: enroll unknown devices on first hello")
	maxFailures := flag.Int("max-failures", 0, "plane mode: appraisal failures before quarantine (0 = default)")
	listeners := flag.Int("listeners", 0, "plane mode: acceptor-pool size (0 = default)")
	metricsAddr := flag.String("metrics", "", "plane mode: serve the live Prometheus exposition over HTTP on this address (/metrics)")
	flag.Parse()

	var err error
	switch {
	case *listen != "":
		err = runDevice(*listen, *provider, flag.Args())
	case *dial != "":
		err = runVerifier(*dial, *provider, flag.Args())
	case *serve != "":
		err = runPlane(*serve, *provider, *autoEnroll, *maxFailures, *listeners, *metricsAddr, flag.Args())
	case *join != "":
		err = runJoin(*join, *device, *provider, flag.Args())
	default:
		err = run(flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tytan-attest:", err)
		os.Exit(1)
	}
}

// loadImageArg reads a TELF image from the single argument, or
// assembles the built-in demo task.
func loadImageArg(args []string) (*telf.Image, error) {
	if len(args) == 1 {
		blob, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		return telf.Decode(blob)
	}
	return asm.Assemble(demoTask)
}

// runDevice boots the platform, loads the task, and serves challenges.
func runDevice(addr, provider string, args []string) error {
	im, err := loadImageArg(args)
	if err != nil {
		return err
	}
	p, err := core.NewPlatform(core.Options{Provider: provider})
	if err != nil {
		return err
	}
	_, id, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("device: serving attestation for %q (idt %x) on %s\n", im.Name, id, l.Addr())
	return remote.NewServer(remote.ComponentsAttestor{C: p.C}, remote.ServerOptions{}).Serve(l)
}

// runVerifier challenges a remote device about the given binary. The
// development platform key stands in for out-of-band key provisioning.
func runVerifier(addr, provider string, args []string) error {
	im, err := loadImageArg(args)
	if err != nil {
		return err
	}
	expected := trusted.IdentityOfImage(im)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	v := trusted.NewVerifier(core.DevKey, provider)
	client := remote.NewClient(v, provider, remote.ClientOptions{})
	const nonce = 0x5EED5EED5EED5EED
	q, err := client.Attest(conn, expected, nonce)
	if err != nil {
		return fmt.Errorf("attestation FAILED: %w", err)
	}
	fmt.Printf("verifier: device attested %q\n  identity %x\n  mac      %x\nACCEPTED\n",
		im.Name, q.ID, q.MAC)
	return nil
}

// runPlane serves a fleet verifier plane: every argument is a published
// TELF binary whose identity joins the known-good set (no arguments:
// the built-in demo task). With -metrics, the plane's live Prometheus
// exposition — session outcomes, registry census, appraisal-cache and
// acceptor-utilization gauges — is served over HTTP at /metrics.
func runPlane(addr, provider string, autoEnroll bool, maxFailures, listeners int, metricsAddr string, args []string) error {
	var known []sha1.Digest
	if len(args) == 0 {
		im, err := asm.Assemble(demoTask)
		if err != nil {
			return err
		}
		known = append(known, trusted.IdentityOfImage(im))
	}
	for _, path := range args {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		im, err := telf.Decode(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		known = append(known, trusted.IdentityOfImage(im))
	}

	client := remote.NewClient(trusted.NewVerifier(core.DevKey, provider), provider, remote.ClientOptions{})
	plane := fleet.NewPlane(fleet.PlaneConfig{
		Client:     client,
		Registry:   fleet.NewRegistry(maxFailures),
		KnownGood:  known,
		AutoEnroll: autoEnroll,
		Listeners:  listeners,
	})
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		ml, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Printf("plane: metrics on http://%s/metrics\n", ml.Addr())
		go serveMetrics(ml, plane)
	}
	fmt.Printf("plane: serving %d known-good builds on %s (auto-enroll %v)\n",
		len(known), l.Addr(), autoEnroll)
	plane.Serve(l)
	return nil
}

// serveMetrics serves the plane's Prometheus exposition at /metrics
// until the listener closes. The registry is built per scrape, so a
// scrape costs the attestation path nothing.
func serveMetrics(l net.Listener, plane *fleet.Plane) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		plane.Metrics().WritePrometheus(w)
	})
	server := &http.Server{Handler: mux} //nolint:gosec // trusted local exposition endpoint
	server.Serve(l)
}

// runJoin boots a device, loads its task, and runs one device-initiated
// session against a verifier plane.
func runJoin(addr, device, provider string, args []string) error {
	im, err := loadImageArg(args)
	if err != nil {
		return err
	}
	p, err := core.NewPlatform(core.Options{Provider: provider})
	if err != nil {
		return err
	}
	tcb, id, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		return err
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		return fmt.Errorf("task unregistered after load")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, remote.ServerOptions{})
	err = srv.AttestTo(conn, remote.Hello{Device: device, Provider: provider, TruncID: e.TruncID})
	if err != nil {
		return fmt.Errorf("attestation FAILED: %w", err)
	}
	fmt.Printf("device %s: attested %q (identity %x) ACCEPTED\n", device, im.Name, id)
	return nil
}

func run(args []string) error {
	var im *telf.Image
	var err error
	if len(args) == 1 {
		var blob []byte
		if blob, err = os.ReadFile(args[0]); err != nil {
			return err
		}
		if im, err = telf.Decode(blob); err != nil {
			return err
		}
	} else {
		if im, err = asm.Assemble(demoTask); err != nil {
			return err
		}
	}

	p, err := core.NewPlatform(core.Options{Provider: "oem"})
	if err != nil {
		return err
	}
	fmt.Println("device: booted TyTAN platform")
	fmt.Printf("device: boot report %x\n", p.C.BootReport)

	tcb, id, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		return err
	}
	fmt.Printf("device: loaded %q, measured identity %x\n", im.Name, id)

	// The verifier knows the published binary and derives the expected
	// identity offline.
	oem := p.Provider("oem")
	verifier := oem.Verifier()
	expected := trusted.IdentityOfImage(im)
	fmt.Printf("verifier: expected identity %x\n", expected)

	const nonce = 0x1122334455667788
	fmt.Printf("verifier: challenge nonce %#x\n", uint64(nonce))
	quote, err := oem.Quote(tcb.ID, nonce)
	if err != nil {
		return err
	}
	fmt.Printf("device: quote id=%x mac=%x\n", quote.ID, quote.MAC)

	if err := verifier.Verify(quote, expected, nonce); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Println("verifier: quote ACCEPTED — task is genuine")

	// Failure case 1: the binary was modified before loading.
	evil := *im
	evil.Text = append([]byte(nil), im.Text...)
	evil.Text[0] ^= 0x01
	evilTCB, _, err := p.LoadTaskSync(&evil, core.Secure, 3)
	if err != nil {
		return err
	}
	evilQuote, err := oem.Quote(evilTCB.ID, nonce+1)
	if err != nil {
		return err
	}
	if err := verifier.Verify(evilQuote, expected, nonce+1); err != nil {
		fmt.Printf("verifier: tampered task REJECTED (%v)\n", err)
	} else {
		return fmt.Errorf("tampered task accepted")
	}

	// Failure case 2: replaying the first quote against a fresh nonce.
	if err := verifier.Verify(quote, expected, nonce+2); err != nil {
		fmt.Printf("verifier: replayed quote REJECTED (%v)\n", err)
	} else {
		return fmt.Errorf("replayed quote accepted")
	}
	return nil
}
