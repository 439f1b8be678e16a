package mesh

// Counters counts the cooperative-mesh subsystem's traffic, as a metrics
// counter set: frame authentication and handshake outcomes, membership
// probes, IRR gossip, and peer-fetch fallbacks.
type Counters struct {
	// FramesIn counts datagrams received on the mesh port.
	FramesIn uint64 `json:"frames_in"`
	// FramesBadMAC counts datagrams dropped for failing decode or HMAC
	// verification (noise, wrong key, or forgery attempts).
	FramesBadMAC uint64 `json:"frames_bad_mac"`
	// FramesNonMember counts authenticated frames from a source that is
	// not a configured peer (dropped in silence).
	FramesNonMember uint64 `json:"frames_non_member"`
	// FramesUnconfirmed counts authenticated requests from sources that
	// had not completed the cookie handshake (answered only with a
	// challenge, never acted on).
	FramesUnconfirmed uint64 `json:"frames_unconfirmed"`
	// ChallengesSent counts cookie challenges issued.
	ChallengesSent uint64 `json:"challenges_sent"`
	// PingsSent counts membership probes initiated.
	PingsSent uint64 `json:"pings_sent"`
	// PingFailures counts probes that timed out or failed.
	PingFailures uint64 `json:"ping_failures"`
	// IRRPushesSent counts IRR sets gossiped to peers after renewals.
	IRRPushesSent uint64 `json:"irr_pushes_sent"`
	// IRRPushesReceived counts IRR pushes arriving from peers.
	IRRPushesReceived uint64 `json:"irr_pushes_received"`
	// IRRIngested counts received pushes accepted by the validated
	// ingest path (the rest failed validation and were dropped).
	IRRIngested uint64 `json:"irr_ingested"`
	// FetchesSent counts peer-fetch fallbacks initiated when local
	// resolution had failed.
	FetchesSent uint64 `json:"fetches_sent"`
	// FetchHits counts peer fetches that returned a usable answer.
	FetchHits uint64 `json:"fetch_hits"`
	// FetchesServed counts peer-fetch requests this node answered from
	// its own cache or stale data.
	FetchesServed uint64 `json:"fetches_served"`
}
