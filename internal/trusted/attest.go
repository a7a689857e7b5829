package trusted

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hcrypto"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/trace"
)

// Attest implements local and remote attestation (§3 "Attestation").
//
// Local attestation needs no cryptography: the EA-MPU guarantees that
// only the RTM can write identities, so reading idt from the registry
// *is* the attestation report.
//
// Remote attestation proves idt to a party outside the platform: the
// Remote Attest task MACs the identity (together with the verifier's
// nonce, preventing replay) under an attestation key Ka derived from
// the platform key Kp. Ka never leaves the trusted components; the
// EA-MPU rule on the key store admits reads from the RTM/Attest/Storage
// code regions only.
type Attest struct {
	m        *machine.Machine
	rtm      *RTM
	kp       []byte
	ka       hcrypto.Key // default provider's attestation key
	provider string      // default provider name (event labeling)
	// perProvider caches per-provider keys ("a key derivation scheme
	// which allows the creation of individual attestation keys per P",
	// §3 footnote 2, citing SANCUS).
	perProvider map[string]*hcrypto.Key
	// quarantined holds identities the supervisor has condemned; the
	// platform will not attest them, locally or remotely, even if the
	// binary is somehow loaded again.
	quarantined map[sha1.Digest]bool

	// Monotonic quote accounting.
	quotes       uint64
	quoteDenials uint64
}

// QuoteCounts returns the number of quotes issued and denied (unknown
// identity or quarantine) since boot.
func (a *Attest) QuoteCounts() (issued, denied uint64) { return a.quotes, a.quoteDenials }

// noteQuote accounts one quote request and reports it as a KindAttest
// event (subject = provider).
func (a *Attest) noteQuote(provider string, id rtos.TaskID, err error) {
	if err != nil {
		a.quoteDenials++
	} else {
		a.quotes++
	}
	if a.m.Obs == nil {
		return
	}
	result := "ok"
	if err != nil {
		result = err.Error()
	}
	a.m.Emit(trace.SubAttest, trace.KindAttest, provider,
		trace.Num("task", uint64(id)), trace.Str("result", result))
}

// Quarantine marks a task identity as untrustworthy. Every later quote
// request for it fails with ErrQuarantined and LocalAttest denies it.
func (a *Attest) Quarantine(id sha1.Digest) {
	if a.quarantined == nil {
		a.quarantined = make(map[sha1.Digest]bool)
	}
	a.quarantined[id] = true
	a.m.Charge(machine.CostRegistryUpdate)
}

// Quarantined reports whether an identity is quarantined.
func (a *Attest) Quarantined(id sha1.Digest) bool { return a.quarantined[id] }

// AttestLabel is the KDF label for attestation keys.
const AttestLabel = "attest"

// Quote is a remote attestation report.
type Quote struct {
	ID    sha1.Digest // full task identity (not truncated)
	Nonce uint64      // verifier challenge
	MAC   sha1.Digest // HMAC(Ka, id ‖ nonce)
}

// Attestation errors.
var (
	ErrQuoteInvalid = errors.New("trusted: attestation quote rejected")
	ErrKeyDenied    = errors.New("trusted: platform key access denied")
	// ErrQuarantined is returned when quoting a task whose identity the
	// supervisor has quarantined: the platform refuses to vouch for a
	// binary that exhausted its restart budget.
	ErrQuarantined = errors.New("trusted: task identity quarantined")
)

// NewAttest creates the Remote Attest component, deriving Ka from the
// platform key for the given provider context (the per-provider scheme
// cited from SANCUS: each task provider P can be given its own key).
func NewAttest(m *machine.Machine, rtm *RTM, provider string) (*Attest, error) {
	kp, err := readPlatformKey(m, AttestBase)
	if err != nil {
		return nil, err
	}
	return &Attest{
		m:           m,
		rtm:         rtm,
		kp:          kp,
		ka:          attestKey(kp, provider),
		provider:    provider,
		perProvider: make(map[string]*hcrypto.Key),
	}, nil
}

// attestKey derives a provider's attestation key Ka from the platform
// key and absorbs it into HMAC midstates.
func attestKey(kp []byte, provider string) hcrypto.Key {
	return hcrypto.NewKey(hcrypto.DeriveKey(kp, AttestLabel, []byte(provider)))
}

// providerKey returns (deriving and caching on first use) the
// attestation key of a task provider.
func (a *Attest) providerKey(provider string) *hcrypto.Key {
	if k, ok := a.perProvider[provider]; ok {
		return k
	}
	a.m.Charge(machine.CostStorageKeyDerive)
	k := attestKey(a.kp, provider)
	a.perProvider[provider] = &k
	return &k
}

// QuoteTaskForProvider produces a quote MACed under the given
// provider's individual attestation key, so mutually distrusting
// stakeholders verify their own tasks without sharing keys.
func (a *Attest) QuoteTaskForProvider(provider string, id rtos.TaskID, nonce uint64) (Quote, error) {
	return a.quote(provider, nil, id, nonce)
}

// quote is the one quote path. key is the MAC key, or nil for the
// provider's cached key, which is derived (and charged for) on the
// provider's first successful quote.
func (a *Attest) quote(provider string, key *hcrypto.Key, id rtos.TaskID, nonce uint64) (Quote, error) {
	e, ok := a.rtm.LookupByTask(id)
	if !ok {
		a.noteQuote(provider, id, ErrUnknownIdentity)
		return Quote{}, ErrUnknownIdentity
	}
	if a.quarantined[e.ID] {
		a.noteQuote(provider, id, ErrQuarantined)
		return Quote{}, ErrQuarantined
	}
	// Two SHA-1 passes over a short message.
	a.m.Charge(2 * machine.CostMeasurePerBlock)
	a.noteQuote(provider, id, nil)
	if key == nil {
		key = a.providerKey(provider)
	}
	return Quote{
		ID:    e.ID,
		Nonce: nonce,
		MAC:   key.MAC(quoteMessage(e.ID, nonce)),
	}, nil
}

// readPlatformKey reads Kp from the key-store device through the
// checked bus in the given component's protection context — the only
// way software can obtain the key, and one the EA-MPU restricts to the
// crypto-capable trusted components.
func readPlatformKey(m *machine.Machine, ctxBase uint32) ([]byte, error) {
	key := make([]byte, machine.KeySize)
	base := machine.DeviceAddr(machine.PageKeyStore)
	var words [machine.KeySize / 4]uint32
	var err error
	m.WithExecContext(ctxBase, func() { err = m.ReadWords(base, words[:]) })
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrKeyDenied, err)
	}
	for i, v := range words {
		binary.LittleEndian.PutUint32(key[4*i:], v)
	}
	m.Charge(machine.KeySize / 4 * 4) // MMIO reads
	return key, nil
}

// quoteMessage is the MAC input: id ‖ nonce.
func quoteMessage(id sha1.Digest, nonce uint64) []byte {
	msg := make([]byte, 0, len(id)+8)
	msg = append(msg, id[:]...)
	msg = binary.LittleEndian.AppendUint64(msg, nonce)
	return msg
}

// QuoteSize is the wire size of an encoded quote.
const QuoteSize = sha1.Size + 8 + sha1.Size

// Marshal encodes the quote for transmission to a remote verifier:
// id ‖ nonce ‖ mac, little-endian nonce.
func (q Quote) Marshal() []byte {
	out := make([]byte, 0, QuoteSize)
	out = append(out, q.ID[:]...)
	out = binary.LittleEndian.AppendUint64(out, q.Nonce)
	out = append(out, q.MAC[:]...)
	return out
}

// UnmarshalQuote decodes a wire-format quote.
func UnmarshalQuote(b []byte) (Quote, error) {
	if len(b) != QuoteSize {
		return Quote{}, fmt.Errorf("%w: %d bytes, want %d", ErrQuoteInvalid, len(b), QuoteSize)
	}
	var q Quote
	copy(q.ID[:], b[:sha1.Size])
	q.Nonce = binary.LittleEndian.Uint64(b[sha1.Size:])
	copy(q.MAC[:], b[sha1.Size+8:])
	return q, nil
}

// QuoteTask produces a remote attestation report for a loaded task
// under the default provider's boot-derived key Ka.
func (a *Attest) QuoteTask(id rtos.TaskID, nonce uint64) (Quote, error) {
	return a.quote(a.provider, &a.ka, id, nonce)
}

// LocalAttest answers whether a task with the given truncated identity
// is currently loaded — the local attestation primitive. The querying
// task can trust the answer because only the RTM writes the registry.
func (a *Attest) LocalAttest(trunc uint64) bool {
	a.m.Charge(machine.CostIPCLookupBase + uint64(a.rtm.Entries())*machine.CostIPCLookupPerTask)
	e, _, err := a.rtm.LookupByTruncID(trunc)
	return err == nil && !a.quarantined[e.ID]
}

// Verifier is the remote party: it knows the platform key (in a real
// deployment, the derived Ka provisioned out of band) and the published
// task binaries.
type Verifier struct {
	ka hcrypto.Key
}

// NewVerifier creates a verifier for the platform with key kp and the
// given provider context.
func NewVerifier(kp []byte, provider string) *Verifier {
	return &Verifier{ka: attestKey(kp, provider)}
}

// Verify checks a quote against the expected identity and the nonce the
// verifier issued: VerifyMAC with the identity appraised between the
// nonce and the MAC checks.
func (v *Verifier) Verify(q Quote, expected sha1.Digest, nonce uint64) error {
	if q.Nonce == nonce && q.ID != expected {
		return fmt.Errorf("%w: identity mismatch", ErrQuoteInvalid)
	}
	return v.VerifyMAC(q, nonce)
}

// VerifyMAC checks a quote's freshness (the nonce) and authenticity
// (the MAC binds the reported identity to the platform key) without
// appraising the reported identity against an expectation. Fleet
// verifiers use it when identity appraisal is a separate policy step —
// e.g. a cached membership test against a known-good measurement set —
// so the expensive MAC check and the policy decision can be layered.
func (v *Verifier) VerifyMAC(q Quote, nonce uint64) error {
	if q.Nonce != nonce {
		return fmt.Errorf("%w: nonce mismatch", ErrQuoteInvalid)
	}
	want := v.ka.MAC(quoteMessage(q.ID, q.Nonce))
	if !bytes.Equal(want[:], q.MAC[:]) {
		return fmt.Errorf("%w: bad MAC", ErrQuoteInvalid)
	}
	return nil
}
