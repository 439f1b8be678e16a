package core

import "resilientdns/internal/resolve"

// The resolution machinery lives in internal/resolve; core re-exports the
// pipeline's shared surface so existing callers (the simulator, the
// persistence layer, the binaries) keep one import.
type (
	// Config parameterises a CachingServer: the settings are declared
	// once, in the pipeline's package (see resolve.Config).
	Config = resolve.Config
	// ServerRef names one authoritative server endpoint.
	ServerRef = resolve.ServerRef
	// RenewalPolicy assigns per-zone renewal credit; LRU, LFU, ALRU and
	// ALFU (policy.go) are the paper's four.
	RenewalPolicy = resolve.RenewalPolicy
	// Fleet is what a caching server asks of the mesh it is a member of
	// (see resolve.Fleet); *mesh.Node satisfies it.
	Fleet = resolve.Fleet
	// Result is a completed resolution.
	Result = resolve.Result
	// UpstreamConfig tunes the robustness layer shared by the query,
	// renewal, and prefetch paths.
	UpstreamConfig = resolve.UpstreamConfig
	// UpstreamServerState is one authoritative server's persisted
	// selection state: the RFC 6298 RTT estimate, the consecutive-failure
	// count, and the quarantine release time.
	UpstreamServerState = resolve.ServerState
)

// ErrResolutionFailed reports that every reachable path to the answer was
// exhausted (the paper's "failed query").
var ErrResolutionFailed = resolve.ErrResolutionFailed

// ErrBogus reports a DNSSEC validation failure: the zone chain is signed
// but the data does not verify.
var ErrBogus = resolve.ErrBogus

// staleServeTTL is the TTL stamped on stale answers (RFC 8767 recommends
// a short value so clients re-try soon).
const staleServeTTL = resolve.StaleServeTTL
