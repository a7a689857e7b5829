package core

import (
	"repro/internal/rtos"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// Secure over-the-air update surface. The platform integrator's view of
// internal/trusted's Updater: enable the service once, sign packages
// with the provider's update key, and apply them to running secure
// tasks with rollback protection and abort-safe swap semantics (see
// internal/trusted/update.go for the pipeline).

// EnableSecureUpdate instantiates the trusted update service for the
// platform's default provider. Idempotent; TyTAN configuration only.
func (p *Platform) EnableSecureUpdate() (*trusted.Updater, error) {
	if p.C == nil {
		return nil, ErrBaselineOnly
	}
	if p.updater != nil {
		return p.updater, nil
	}
	u, err := trusted.NewUpdater(p.K, p.C, p.provider)
	if err != nil {
		return nil, err
	}
	p.updater = u
	return u, nil
}

// SecureUpdate returns the update service if EnableSecureUpdate has run.
func (p *Platform) SecureUpdate() *trusted.Updater { return p.updater }

// SignUpdate wraps an image in a signed update manifest under the
// platform default provider's update key — the build-system side of the
// update path, here for tests, the simulator CLI and the harness. A
// real deployment signs offline with the provisioned key.
func (p *Platform) SignUpdate(im *telf.Image, version uint64) ([]byte, error) {
	return telf.Sign(im, version, trusted.DeriveUpdateKey(p.platformKey, p.provider))
}

// ApplyUpdate runs the full secure update pipeline on a loaded secure
// task: verify signature, enforce the sealed monotonic counter, stage
// and install the new version while the old one stays schedulable, swap
// abort-safely — re-sealing the listed storage slots to the new
// identity and carrying a pending mailbox message over — and re-attest
// under nonce. This is the platform's one runtime update path (the
// paper's §8 future work). Enables the service on first use. Refused
// on statically configured platforms — runtime task replacement is
// exactly what TrustLite-style static configuration forbids.
func (p *Platform) ApplyUpdate(id rtos.TaskID, pkg []byte, nonce uint64, migrate ...uint32) (*trusted.UpdateReport, error) {
	if p.staticOnly {
		return nil, ErrStaticConfig
	}
	u, err := p.EnableSecureUpdate()
	if err != nil {
		return nil, err
	}
	return u.Apply(id, pkg, nonce, migrate...)
}
