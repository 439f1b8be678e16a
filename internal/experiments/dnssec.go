package experiments

import (
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/sim"
	"resilientdns/internal/topology"
)

// signedTree returns (generating on demand) the DNSSEC-signed variant of
// the base hierarchy.
func (s *Suite) signedTree() (*topology.Tree, error) {
	if s.signed != nil {
		return s.signed, nil
	}
	t, err := s.tree(func(tp *topology.Params) { tp.Signed = true })
	if err != nil {
		return nil, err
	}
	s.signed = t
	return t, nil
}

// DNSSECExtension demonstrates the paper's §6 claim: the refresh and
// renewal techniques extend to DNSSEC's new infrastructure records (DS
// and DNSKEY). A validating resolver over a fully signed hierarchy is
// compared with and without the resilience schemes under the 6-hour
// root+TLD attack, against the unsigned baseline.
func (s *Suite) DNSSECExtension() (*Table, error) {
	const dur = 6 * time.Hour
	t := &Table{
		ID:    "dnssec",
		Title: "DNSSEC-validating resolver under 6h root+TLD attack",
		Columns: []string{"Trace",
			"unsigned DNS SR", "signed DNS SR",
			"unsigned A-LFU(5) SR", "signed A-LFU(5) SR"},
	}
	signed, err := s.signedTree()
	if err != nil {
		return nil, err
	}
	policy := core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}
	for _, tr := range s.traces {
		basePlain, err := s.runBase(tr, sim.Vanilla(), dur)
		if err != nil {
			return nil, err
		}
		signedVanilla := sim.Vanilla()
		signedVanilla.Name = "DNS+DNSSEC"
		signedVanilla.ValidateDNSSEC = true
		baseSigned, err := s.run(signed, "signed", tr, signedVanilla, dur, 0, false)
		if err != nil {
			return nil, err
		}
		plainRenew, err := s.runBase(tr, sim.RefreshRenew(policy), dur)
		if err != nil {
			return nil, err
		}
		signedRenew := sim.RefreshRenew(policy)
		signedRenew.Name = "Refresh+A-LFU(5)+DNSSEC"
		signedRenew.ValidateDNSSEC = true
		renewSigned, err := s.run(signed, "signed", tr, signedRenew, dur, 0, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			tr.Label,
			pct(basePlain.SRFailRate()), pct(baseSigned.SRFailRate()),
			pct(plainRenew.SRFailRate()), pct(renewSigned.SRFailRate()),
		})
	}
	t.Notes = append(t.Notes,
		"validation adds DS/DNSKEY fetches but the renewal schemes keep those IRRs cached too",
		"the resilience gain survives a fully signed, validating deployment (§6)")
	return t, nil
}
