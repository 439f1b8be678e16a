package resolve

import (
	"context"
	"errors"
	"fmt"

	"resilientdns/internal/dnswire"
)

// maxChainDepth bounds DS→DNSKEY chain walks.
const maxChainDepth = 8

// ErrBogus reports a DNSSEC validation failure: the zone chain is signed
// but the data does not verify.
var ErrBogus = errors.New("resolve: DNSSEC validation failed (bogus)")

// The dnssec.Validator mutates its trust-anchor map while validating
// delegations, so every call into it (and every insecure-map access) is
// serialized under secMu. secMu is a leaf lock, never held across
// network I/O — the accessors below each take it for one step only.

// zoneTrusted reports whether zname already has trusted keys.
func (r *Resolver) zoneTrusted(zname dnswire.Name) bool {
	r.secMu.Lock()
	defer r.secMu.Unlock()
	return len(r.validator.TrustedKeys(zname)) > 0
}

// zoneInsecure reports whether zname is cached as provably unsigned.
func (r *Resolver) zoneInsecure(zname dnswire.Name) bool {
	r.secMu.Lock()
	defer r.secMu.Unlock()
	return r.insecure[zname]
}

// markInsecure caches zname as provably unsigned.
func (r *Resolver) markInsecure(zname dnswire.Name) {
	r.secMu.Lock()
	defer r.secMu.Unlock()
	r.insecure[zname] = true
}

// ensureTrusted establishes the DS→DNSKEY chain from the trust anchors
// down to zname. It returns whether the zone is securely delegated
// (false = provably unsigned/insecure, which is acceptable) or an error
// when the chain is bogus or unreachable.
func (r *Resolver) ensureTrusted(ctx context.Context, tr *Trace, zname dnswire.Name, depth int) (bool, error) {
	if r.validator == nil {
		return false, nil
	}
	if r.zoneTrusted(zname) {
		return true, nil
	}
	if zname.IsRoot() {
		// The root is only ever trusted via the configured anchors.
		return false, nil
	}
	if r.zoneInsecure(zname) {
		return false, nil
	}
	if depth > maxChainDepth {
		return false, fmt.Errorf("%w: trust chain deeper than %d at %s", ErrBogus, maxChainDepth, zname)
	}

	// 1. The DS set for zname, served authoritatively by the parent side.
	dsSet, dsSig, err := r.fetchRRSetWithSig(ctx, tr, zname, dnswire.TypeDS, depth)
	if err != nil {
		return false, fmt.Errorf("fetching DS for %s: %w", zname, err)
	}
	if len(dsSet) == 0 {
		// No DS: an insecure delegation. (Without NSEC we accept the
		// parent's negative answer at face value.)
		r.markInsecure(zname)
		return false, nil
	}
	sig, ok := dsSig.Data.(dnswire.RRSIG)
	if !ok {
		return false, fmt.Errorf("%w: DS set for %s carries no signature", ErrBogus, zname)
	}

	// 2. The signer (the parent zone) must itself be trusted.
	parentSecure, err := r.ensureTrusted(ctx, tr, sig.SignerName, depth+1)
	if err != nil {
		return false, err
	}
	if !parentSecure {
		r.markInsecure(zname)
		return false, nil
	}

	// 3. The child's self-signed DNSKEY set must match the DS.
	keySet, keySig, err := r.fetchRRSetWithSig(ctx, tr, zname, dnswire.TypeDNSKEY, depth)
	if err != nil {
		return false, fmt.Errorf("fetching DNSKEY for %s: %w", zname, err)
	}
	if len(keySet) == 0 {
		return false, fmt.Errorf("%w: signed delegation %s publishes no DNSKEY", ErrBogus, zname)
	}
	now := r.cfg.Clock.Now()
	r.secMu.Lock()
	err = r.validator.ValidateDelegation(sig.SignerName, zname, dsSet, dsSig, keySet, keySig, now)
	r.secMu.Unlock()
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBogus, err)
	}
	return true, nil
}

// fetchRRSetWithSig resolves (qname, qtype) over the network and returns
// the RRset together with its covering RRSIG from the same response. An
// authoritative negative answer returns an empty set and no error.
func (r *Resolver) fetchRRSetWithSig(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type, depth int) ([]dnswire.RR, dnswire.RR, error) {
	res, raw, err := r.iterate(ctx, tr, qname, qtype, depth+1, false, false)
	if err != nil {
		return nil, dnswire.RR{}, err
	}
	if res.RCode != dnswire.RCodeNoError || raw == nil {
		return nil, dnswire.RR{}, nil // negative: insecure/absent
	}
	var set []dnswire.RR
	var sig dnswire.RR
	for _, rr := range raw.Answer {
		if rr.Name != qname {
			continue
		}
		if rr.Type() == qtype {
			set = append(set, rr)
		}
		if s, ok := rr.Data.(dnswire.RRSIG); ok && s.TypeCovered == qtype {
			sig = rr
		}
	}
	return set, sig, nil
}

// validateAnswer verifies the RRSIGs over every answer RRset in resp,
// walking the trust chain as needed. Insecure (unsigned) zones pass
// unvalidated, matching standard resolver behaviour.
func (r *Resolver) validateAnswer(ctx context.Context, tr *Trace, zname dnswire.Name, resp *dnswire.Message, depth int) error {
	secure, err := r.ensureTrusted(ctx, tr, zname, depth)
	if err != nil {
		return err
	}
	if !secure {
		return nil
	}
	now := r.cfg.Clock.Now()
	for _, set := range groupRRSets(nil, resp.Answer) {
		if set[0].Type() == dnswire.TypeRRSIG {
			continue
		}
		sigRR, ok := findSig(resp.Answer, set[0].Name, set[0].Type())
		if !ok {
			return fmt.Errorf("%w: no RRSIG over %s %s from secure zone %s",
				ErrBogus, set[0].Name, set[0].Type(), zname)
		}
		signer := sigRR.Data.(dnswire.RRSIG).SignerName
		signerSecure, err := r.ensureTrusted(ctx, tr, signer, depth)
		if err != nil {
			return err
		}
		if !signerSecure {
			continue // cross-zone CNAME target in an unsigned zone
		}
		r.secMu.Lock()
		err = r.validator.ValidateRRSet(signer, sigRR, set, now)
		r.secMu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %s %s: %v", ErrBogus, set[0].Name, set[0].Type(), err)
		}
	}
	return nil
}

// findSig locates the RRSIG covering (owner, t) in a section.
func findSig(rrs []dnswire.RR, owner dnswire.Name, t dnswire.Type) (dnswire.RR, bool) {
	for _, rr := range rrs {
		if rr.Name != owner {
			continue
		}
		if s, ok := rr.Data.(dnswire.RRSIG); ok && s.TypeCovered == t {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// SecureZone reports whether zname currently has a validated key chain
// (true), is known insecure (false), with ok=false when undetermined.
func (r *Resolver) SecureZone(zname dnswire.Name) (secure, known bool) {
	if r.validator == nil {
		return false, false
	}
	if r.zoneTrusted(zname) {
		return true, true
	}
	return false, r.zoneInsecure(zname)
}
