package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricName names a metric and its unit.
type metricName struct{ name, unit string }

// metric is one measured value, with the number of samples behind it.
type metric struct {
	metricName
	value   float64
	samples uint64
}

// endToEndNames lists the end-to-end metrics in print order;
// BENCHMARK.json's end_to_end names the same ones.
var endToEndNames = []metricName{
	{"setup_s", "s"},
	{"cpu_vs_echo", "ratio"},
	{"sat_vs_echo", "ratio"},
	{"ok_qps", "1/s"},
	{"alive_ratio", "ratio"},
	{"msgs_per_query", "ratio"},
	{"server_rss_mb", "MiB"},
}

// perRound collects one figure from every round.
func (m *measurement) perRound(f func(round) float64) []float64 {
	out := make([]float64, len(m.rounds))
	for i, rd := range m.rounds {
		out[i] = f(rd)
	}
	return out
}

func (m *measurement) p50s() []float64 {
	return m.perRound(func(r round) float64 { return r.fixed.latencyMS(0.5) })
}
func (m *measurement) refP50s() []float64 {
	return m.perRound(func(r round) float64 { return r.refFixed.latencyMS(0.5) })
}
func (m *measurement) cpus() []float64 { return m.perRound(func(r round) float64 { return r.cpu }) }
func (m *measurement) refCPUs() []float64 {
	return m.perRound(func(r round) float64 { return r.refCPU })
}
func (m *measurement) sats() []float64 {
	return m.perRound(func(r round) float64 { return r.sat.okPerSecond() })
}
func (m *measurement) refSats() []float64 {
	return m.perRound(func(r round) float64 { return r.refSat.okPerSecond() })
}

// p50VsEcho is the median latency of correctly answered queries at the
// fixed rate, timed from when each was due, over the echo child's: the
// median of the rounds' ratios.
func (m *measurement) p50VsEcho() float64 { return median(ratios(m.p50s(), m.refP50s())) }

// endToEnd boils a run down to the metrics a user of dnscache would see,
// in endToEndNames order. The two time-based ones are dnscache against the
// echo child (see round), each the median of the rounds' ratios: CPU time
// per client query at the fixed rate, and correct answers per second at
// saturation. Failures show in ok_qps, never as a made-up latency. ok_qps counts every query a well-behaved client sent,
// the dark ones too: on blackout it is the offered rate times the share
// of queries answered during the attack.
func (m *measurement) endToEnd() []metric {
	f := m.fixed
	client := m.clientQueries()
	// Every datagram dnscache handled for the fixed-rate phase: client
	// queries in and replies out, upstream queries out and replies in.
	msgs := client + f.replies + m.abuseReply + m.rigFixed.received() + m.rigFixed.Answered
	values := []struct {
		v float64
		n uint64
	}{
		{m.setupS, setUps},
		{median(ratios(m.cpus(), m.refCPUs())), client},
		{median(ratios(m.sats(), m.refSats())), m.sat.attempted()},
		{float64(f.outcomes[outOK]+f.darkOK) / f.span.Seconds(), f.attempted() + f.darkSent},
		{float64(m.probe.outcomes[outOK]) / float64(m.probe.sent), m.probe.sent},
		{float64(msgs) / float64(client), client},
		{median(m.rssKiB) / 1024, uint64(len(m.rssKiB))},
	}
	out := make([]metric, len(values))
	for i, x := range values {
		out[i] = metric{endToEndNames[i], x.v, x.n}
	}
	return out
}

// attempted and failed count the queries of both measured phases and the
// probe. A dark query is attempted; failing is its right outcome.
func (m *measurement) attempted() uint64 {
	return m.fixed.attempted() + m.fixed.darkSent + m.sat.attempted() + m.probe.attempted()
}
func (m *measurement) failed() uint64 { return m.fixed.failed() + m.sat.failed() + m.probe.failed() }

// resent counts the queries of both phases and the probe that were sent
// again for want of an answer.
func (m *measurement) resent() uint64 { return m.fixed.resent + m.sat.resent + m.probe.resent }

// wrong counts answers that were not merely missing but incorrect.
func (m *measurement) wrong() uint64 {
	return m.fixed.outcomes[outWrongData] + m.sat.outcomes[outWrongData] + m.probe.outcomes[outWrongData]
}

// upstreamPerQuery is the paper's message overhead: queries the rig
// received per client query sent, fixed-rate phase.
func (m *measurement) upstreamPerQuery() float64 {
	return float64(m.rigFixed.received()) / float64(m.clientQueries())
}

func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, x := range ms {
		fmt.Fprintf(w, "%-9s %-36s %14.6g %-6s n=%d\n", workload, x.name, x.value, x.unit, x.samples)
	}
}

// describe prints what a run saw beyond its metrics.
func (m *measurement) describe(w io.Writer) {
	f := m.fixed
	fmt.Fprintf(w, "%-9s fixed-rate phase: %d qps open loop for %s, %d sent, %s; fail_ratio=%.5f upstream_per_query=%.4f\n",
		m.w.name, m.w.rate, m.plan.fixed, f.sent, f.outcomeString(), failRatio(f.failed(), f.attempted()), m.upstreamPerQuery())
	if f.darkSent > 0 {
		fmt.Fprintf(w, "%-9s dark queries (zones never visited, expected to fail): %d sent, %d answered anyway; failed queries during the attack = %.4f of all\n",
			m.w.name, f.darkSent, f.darkOK, failRatio(f.failed()+f.darkSent-f.darkOK, f.attempted()+f.darkSent))
	}
	fmt.Fprintf(w, "%-9s probe after the phases, one query per zone: %d of %d zones resolve (%s)\n",
		m.w.name, m.probe.outcomes[outOK], m.probe.sent, m.probe.outcomeString())
	if m.abuseSent > 0 {
		fmt.Fprintf(w, "%-9s abuser: %d sent from %s, %d replies\n", m.w.name, m.abuseSent, abuserIP, m.abuseReply)
	}
	fmt.Fprintf(w, "%-9s %d rounds, each: fixed rate on dnscache, on the echo child, saturation on dnscache, on the echo child\n", m.w.name, len(m.rounds))
	fmt.Fprintf(w, "%-9s p50 ms per round:          %.4f\n", m.w.name, m.p50s())
	fmt.Fprintf(w, "%-9s   echo child:              %.4f\n", m.w.name, m.refP50s())
	fmt.Fprintf(w, "%-9s   ratio:                   %.3f, median %.4f (not gated: see README)\n", m.w.name, ratios(m.p50s(), m.refP50s()), m.p50VsEcho())
	fmt.Fprintf(w, "%-9s server CPU us/query per round: %.2f\n", m.w.name, m.cpus())
	fmt.Fprintf(w, "%-9s   echo child:              %.2f\n", m.w.name, m.refCPUs())
	fmt.Fprintf(w, "%-9s   ratio:                   %.3f\n", m.w.name, ratios(m.cpus(), m.refCPUs()))
	fmt.Fprintf(w, "%-9s saturation phase: closed loop for %s, %s\n", m.w.name, m.plan.sat, m.sat.outcomeString())
	if limit := m.w.cache.clientRPS; limit > 0 {
		each := m.sat.okPerSecond() / float64(m.senders*satSources)
		note := "the guard's per-client limit is not what was measured"
		if each > limit/2 || m.sat.outcomes[outTruncated] > 0 {
			note = "NOTE: the guard's per-client limit caps sat_qps; raise satSources"
		}
		fmt.Fprintf(w, "%-9s saturation clients: %d source addresses at %.0f qps each against -client-rps %.0f, %d slipped: %s\n",
			m.w.name, m.senders*satSources, each, limit, m.sat.outcomes[outTruncated], note)
	}
	fmt.Fprintf(w, "%-9s sat qps per round:         %.0f\n", m.w.name, m.sats())
	fmt.Fprintf(w, "%-9s   echo child:              %.0f\n", m.w.name, m.refSats())
	fmt.Fprintf(w, "%-9s   ratio:                   %.3f\n", m.w.name, ratios(m.sats(), m.refSats()))
	fmt.Fprintf(w, "%-9s times as measured, all rounds together: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (n=%d), sat %.0f qps, server CPU %.2f us/query; echo child p50 %.4f ms, sat %.0f qps (%s)\n",
		m.w.name, f.latencyMS(0.5), f.latencyMS(0.9), f.latencyMS(0.99), len(f.samples), m.sat.okPerSecond(), m.serverCPU*1e6/float64(m.clientQueries()),
		m.refFixed.latencyMS(0.5), m.refSat.okPerSecond(), m.refFixed.outcomeString())
	fmt.Fprintf(w, "%-9s generator lateness p99 %.3f ms, worst %.3f ms, stray replies %d; queries sent again after %s without an answer: %d; receive-buffer drops: %d at dnscache, %d at the generator\n",
		m.w.name, percentileMS(f.lateness, 0.99), percentileMS(f.lateness, 1), f.stray+m.sat.stray, retryAfter, m.resent(), m.serverDrops, f.dropped+m.sat.dropped)
	for _, line := range m.final {
		if strings.HasPrefix(line, "final:") || strings.HasPrefix(line, "guard:") {
			fmt.Fprintf(w, "%-9s dnscache %s\n", m.w.name, line)
		}
	}
}

// resultLine is the last line of a driver run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, correct bool, attempted, failed uint64, ms []metric) error {
	r := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, x := range ms {
		r.Metrics[x.name] = metricValue{x.value, x.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
