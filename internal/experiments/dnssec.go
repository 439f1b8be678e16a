package experiments

import "resilientdns/internal/sim"

// dnssecExtension demonstrates the paper's §6 claim: the refresh and
// renewal techniques extend to DNSSEC's new infrastructure records (DS
// and DNSKEY). A validating resolver over a fully signed hierarchy is
// compared with and without the resilience schemes under the 6-hour
// root+TLD attack, against the unsigned baseline.
func dnssecExtension(s *Suite) plan {
	signed := func(sc sim.Scheme) func(*runSpec) {
		sc.ValidateDNSSEC = true
		return func(sp *runSpec) { sp.tree.signed, sp.scheme = true, sc }
	}
	return grid("dnssec", "DNSSEC-validating resolver under 6h root+TLD attack", "Trace",
		s.weekRows(sixHours), []column{
			{"unsigned DNS SR", nil, srFail},
			{"signed DNS SR", signed(sim.Vanilla()), srFail},
			{"unsigned A-LFU(5) SR", scheme(sim.RefreshRenew(alfu5)), srFail},
			{"signed A-LFU(5) SR", signed(sim.RefreshRenew(alfu5)), srFail},
		},
		note("validation adds DS/DNSKEY fetches but the renewal schemes keep those IRRs cached too",
			each(func(r []*outcome) bool { return r[3].MessagesOut() > r[2].MessagesOut() && sr(r[3]) <= sr(r[2])+near })),
		note("the resilience gain survives a fully signed, validating deployment (§6)",
			each(func(r []*outcome) bool { return sr(r[3]) <= sr(r[1])/2 })))
}
