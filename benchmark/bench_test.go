package main

import (
	"context"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

// A stall while sending one query must show up as lateness of every query
// that was due during it: the open loop sends on schedule, not "one
// interval after the last reply", so it cannot omit the delay a stalled
// server (or generator) imposes on later requests.
func TestPaceChargesStallToLaterRequests(t *testing.T) {
	const ms = int64(time.Millisecond)
	plan := openPlan{due: make([]int64, 10), keys: make([]uint64, 10)}
	for i := range plan.due {
		plan.due[i], plan.keys[i] = int64(i)*ms, uint64(i)
	}
	var now int64
	var sentAt []int64
	late := pace(plan,
		func() int64 { return now },
		func(d time.Duration) { now += int64(d) },
		func() bool { return true },
		func(due int64, key uint64) {
			if now < due {
				t.Errorf("query %d sent %d ns early", key, due-now)
			}
			sentAt = append(sentAt, now)
			if key == 2 {
				now += 50 * ms // the stall
			}
		})
	// The seven queries due during the stall go out when it ends, each
	// late by all the time since it was due.
	for i, l := range late {
		want := int64(0)
		if i > 2 {
			want = 52*ms - plan.due[i]
		}
		if l != want || sentAt[i] != plan.due[i]+want {
			t.Errorf("query %d: sent at %d ns, %d ns late; want %d ns late", i, sentAt[i], l, want)
		}
	}
}

// With the window shut a due query waits for room instead of being sent,
// is sent the moment there is room, and is not counted as generator
// lateness: its due time stands, so the wait is charged to its latency.
func TestPaceWaitsForRoom(t *testing.T) {
	const ms = int64(time.Millisecond)
	plan := openPlan{due: []int64{0, 1 * ms, 2 * ms}, keys: []uint64{0, 1, 2}}
	var now int64
	var sentAt, dues []int64
	late := pace(plan,
		func() int64 { return now },
		func(d time.Duration) { now += int64(d) },
		func() bool { return now < 1*ms || now >= 10*ms }, // answers stop coming for 9 ms
		func(due int64, key uint64) { sentAt, dues = append(sentAt, now), append(dues, due) })
	if want := []int64{0, 10 * ms, 10 * ms}; !reflect.DeepEqual(sentAt, want) {
		t.Errorf("sent at %v, want %v", sentAt, want)
	}
	if !reflect.DeepEqual(dues, plan.due) {
		t.Errorf("dues handed to send %v, want the plan's %v", dues, plan.due)
	}
	// The second query was on time and then waited; the third fell due
	// while the generator sat waiting, which the generator cannot help
	// either, but lateness has no way to tell and reports it.
	if want := []int64{0, 0, 8 * ms}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness %v, want %v", late, want)
	}
}

// A query without an answer is sent again every retryAfter with its own
// ID until clientTimeout has passed, then it has failed; an answered one
// is left alone.
func TestSenderRetriesThenGivesUp(t *testing.T) {
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sock, err := dial(srv.LocalAddr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	s := newSender(sock, echoNames(), 16, false)
	s.start = time.Now().Add(-time.Hour) // offsets are large; only differences matter
	now := s.now()
	s.send(now, 7)
	s.send(now, 8)
	s.tr.settle(1)   // key 8 is answered
	s.sweep(s.now()) // too early for either
	if s.stats.resent != 0 {
		t.Fatalf("resent %d before retryAfter", s.stats.resent)
	}
	resends := int(clientTimeout/retryAfter) - 1
	for i := 1; i <= resends; i++ {
		s.sweep(now + int64(i)*int64(retryAfter) + int64(time.Millisecond))
	}
	if s.stats.resent != uint64(resends) || s.tr.open != 1 {
		t.Errorf("resent %d with %d open, want %d resends of the one open query", s.stats.resent, s.tr.open, resends)
	}
	s.sweep(now + int64(clientTimeout) + int64(time.Millisecond))
	if s.tr.open != 0 || s.stats.outcomes[outTimeout] != 1 || s.stats.resent != uint64(resends) {
		t.Errorf("after the timeout: %d open, %d timed out, %d resent; want 0, 1, %d", s.tr.open, s.stats.outcomes[outTimeout], s.stats.resent, resends)
	}
	buf := make([]byte, 512)
	for i := 0; i < 2+resends; i++ { // two first sends, then the resends of ID 0
		srv.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		q, err := dnswire.Unpack(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		wantID, wantKey := uint16(0), uint64(7)
		if i == 1 {
			wantID, wantKey = 1, 8
		}
		if name, _ := s.src.expect(wantKey); q.ID != wantID || q.Question[0].Name != name {
			t.Errorf("datagram %d: id %d %s, want id %d %s", i, q.ID, q.Question[0].Name, wantID, name)
		}
	}
}

// A reply settles the query that holds its ID only if it answers that
// query's question: the late duplicate of an earlier answer is a stray.
func TestBookIgnoresAnswersToOtherQuestions(t *testing.T) {
	names := echoNames()
	s := newSender(nil, names, 4, true)
	s.start = time.Now()
	id, _ := s.tr.issue(0, 5)
	reply := func(key uint64) []byte {
		q, err := dnswire.Unpack(names.appendQuery(nil, id, key))
		if err != nil {
			t.Fatal(err)
		}
		wire, err := echoAnswer(q).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	s.book(reply(6))
	if s.tr.open != 1 || s.stats.stray != 1 {
		t.Fatalf("an answer to another question: %d open, %d stray; want 1, 1", s.tr.open, s.stats.stray)
	}
	s.book(reply(5))
	s.book(reply(5))
	if s.tr.open != 0 || s.stats.outcomes[outOK] != 1 || s.stats.stray != 2 || len(s.stats.samples) != 1 {
		t.Errorf("the answer and its duplicate: %d open, %d ok, %d stray; want 0, 1, 2", s.tr.open, s.stats.outcomes[outOK], s.stats.stray)
	}
}

// IDs are never issued while a query holds them, and a freed ID waits its
// turn behind every other free one.
func TestTrackerIDs(t *testing.T) {
	tr := newTracker(4)
	for i := 0; i < 4; i++ {
		if id, ok := tr.issue(int64(i), uint64(100+i)); !ok || int(id) != i {
			t.Fatalf("issue %d: id %d ok %v", i, id, ok)
		}
	}
	if _, ok := tr.issue(4, 104); ok {
		t.Fatal("issued a fifth ID of four")
	}
	if q, open := tr.holds(2); !open || q.key != 102 {
		t.Fatalf("holds(2) = %+v, %v", q, open)
	}
	tr.settle(2)
	if _, open := tr.holds(2); open {
		t.Error("a settled query is still open: a duplicate reply would settle it twice")
	}
	if _, open := tr.holds(200); open {
		t.Error("an ID outside the table holds a query")
	}
	tr.settle(0)
	// Free now, in this order: 2, 0.
	for i, want := range []uint16{2, 0} {
		if id, ok := tr.issue(int64(10+i), uint64(110+i)); !ok || id != want {
			t.Errorf("reissue %d: id %d ok %v, want id %d", i, id, ok, want)
		}
	}
	if q, _ := tr.holds(2); q.key != 110 {
		t.Errorf("ID 2 holds key %d, want 110", q.key)
	}
	// Many laps with prompt replies: the IDs keep going round.
	for i := 0; i < 4; i++ {
		tr.settle(uint16(i))
	}
	seen := map[uint16]int{}
	for i := 0; i < 100; i++ {
		id, ok := tr.issue(int64(100+i), uint64(i))
		if !ok {
			t.Fatalf("lap query %d: no ID", i)
		}
		seen[id]++
		tr.settle(id)
	}
	if tr.open != 0 || len(seen) != 4 || seen[0] != 25 {
		t.Errorf("%d open, IDs used %v; want 0 open and each of 4 IDs 25 times", tr.open, seen)
	}
}

func TestStatsArithmetic(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2 (nearest rank)", got)
	}
	if got := failRatio(5, 1000); got != 0.005 {
		t.Errorf("failRatio(5, 1000) = %v", got)
	}
	if got := failRatio(0, 0); got != 0 {
		t.Errorf("failRatio(0, 0) = %v", got)
	}

	// A run's time-based metrics are the median of its rounds' ratios to
	// the echo child: a round that a host stall hit (here the third, on
	// dnscache's side only) must not move them, and a slowdown that hits
	// both sides alike (the fifth) cancels.
	dnscache := []float64{0.040, 0.041, 0.400, 0.040, 0.060, 0.039}
	echo := []float64{0.020, 0.020, 0.021, 0.020, 0.030, 0.020}
	if got := median(ratios(dnscache, echo)); math.Abs(got-2) > 0.03 {
		t.Errorf("median ratio = %v, want about 2", got)
	}
	if got := ratios([]float64{1, 2, 3}, []float64{2, 0}); !reflect.DeepEqual(got, []float64{0.5}) {
		t.Errorf("ratios with a zero and a missing divisor = %v, want [0.5]", got)
	}

	var p phaseStats
	p.outcomes[outOK], p.outcomes[outTimeout], p.outcomes[outTruncated], p.outcomes[outServFail] = 990, 4, 5, 1
	if p.failed() != 10 || p.attempted() != 1000 {
		t.Errorf("failed %d of %d attempted, want 10 of 1000", p.failed(), p.attempted())
	}
	p.samples, p.span = []int64{3e6, 1e6, 2e6, 4e6}, 2*time.Second
	if got := p.latencyMS(0.5); got != 2 {
		t.Errorf("p50 of 1..4 ms = %v ms, want 2", got)
	}
	if got := p.okPerSecond(); got != 495 {
		t.Errorf("990 OK in 2 s = %v per second, want 495", got)
	}
	// Seven ticks: a partial first and last, and a stall in the middle
	// that the running rate must not see.
	for i, n := range []int{3, 8, 12, 0, 0, 10, 4} {
		for ; n > 0; n-- {
			p.countDone(int64(i)*int64(tick) + 1)
		}
	}
	if got := p.running(); got != 10*float64(time.Second/tick) {
		t.Errorf("running rate = %v per second, want 30 answers in 3 ticks", got)
	}
}

func TestCheckAnswer(t *testing.T) {
	name := dnswire.MustName("h7.zabc.tde.")
	addr := hostAddr(name)
	q := dnswire.NewQuery(9, name, dnswire.TypeA)
	good := func() *dnswire.Message {
		r := q.Reply()
		r.Answer = []dnswire.RR{rr(name, 60, dnswire.A{Addr: addr})}
		return r
	}
	cases := []struct {
		what string
		edit func(*dnswire.Message)
		want outcome
	}{
		{"correct answer", func(*dnswire.Message) {}, outOK},
		{"wrong rdata", func(r *dnswire.Message) { r.Answer[0].Data = dnswire.A{Addr: netip.MustParseAddr("10.9.9.9")} }, outWrongData},
		{"right rdata on another owner", func(r *dnswire.Message) { r.Answer[0].Name = "h8.zabc.tde." }, outWrongData},
		{"empty answer", func(r *dnswire.Message) { r.Answer = nil }, outWrongData},
		{"another question", func(r *dnswire.Message) { r.Question[0].Name = "h8.zabc.tde." }, outWrongData},
		{"not a response", func(r *dnswire.Message) { r.Flags.Response = false }, outWrongData},
		{"TC slip", func(r *dnswire.Message) { r.Flags.Truncated = true; r.Answer = nil }, outTruncated},
		{"SERVFAIL", func(r *dnswire.Message) { r.RCode = dnswire.RCodeServFail; r.Answer = nil }, outServFail},
		{"REFUSED", func(r *dnswire.Message) { r.RCode = dnswire.RCodeRefused; r.Answer = nil }, outRefused},
		{"NXDOMAIN", func(r *dnswire.Message) { r.RCode = dnswire.RCodeNXDomain; r.Answer = nil }, outOtherRCode},
	}
	for _, c := range cases {
		r := good()
		c.edit(r)
		if got := checkAnswer(r, name, addr); got != c.want {
			t.Errorf("%s: %s, want %s", c.what, outcomeNames[got], outcomeNames[c.want])
		}
	}
}

// The rig must really refer: root → TLD → SLD → a checkable answer, count
// per level, and go silent on command.
func TestRigReferralsAndBlackout(t *testing.T) {
	r := newRig(rigSpec{Seed: 3, TLDTTL: 600, SLDTTL: 20, DataTTL: 5})
	if len(r.slds) != numSLDs || len(r.servers) != 1+numTLDs+numSLDServers {
		t.Fatalf("%d zones on %d servers", len(r.slds), len(r.servers))
	}
	if again := newRig(r.spec); !reflect.DeepEqual(again.slds, r.slds) {
		t.Error("the same seed gave different zones")
	}
	if other := newRig(rigSpec{Seed: 4}); reflect.DeepEqual(other.slds, r.slds) {
		t.Error("another seed gave the same zones")
	}
	pipe := r.pipe(53)
	name := leafName("h", 12, r.slds[5])
	server := transport.Addr(netip.AddrPortFrom(rootAddr, 53).String())
	var resp *dnswire.Message
	for hop := 0; hop < 3; hop++ {
		var err error
		if resp, err = pipe.Exchange(context.Background(), server, dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
			t.Fatalf("hop %d to %s: %v", hop, server, err)
		}
		if len(resp.Answer) > 0 {
			break
		}
		if len(resp.Authority) == 0 || len(resp.Additional) == 0 {
			t.Fatalf("hop %d: neither answer nor referral with glue: %v", hop, resp)
		}
		server = transport.Addr(netip.AddrPortFrom(resp.Additional[0].Data.(dnswire.A).Addr, 53).String())
	}
	if got := checkAnswer(resp, name, hostAddr(name)); got != outOK {
		t.Fatalf("answer after referrals: %s: %v", outcomeNames[got], resp)
	}
	if resp.Answer[0].TTL != 5 || resp.Authority[0].TTL != 20 {
		t.Errorf("TTLs: data %d, SLD IRR %d; want 5, 20", resp.Answer[0].TTL, resp.Authority[0].TTL)
	}
	if c := r.counts(); c.Root != 1 || c.TLD != 1 || c.SLD != 1 || c.Answered != 3 {
		t.Errorf("counts after one walk: %+v", c)
	}

	r.blackout("root,tld")
	if _, err := pipe.Exchange(context.Background(), transport.Addr(netip.AddrPortFrom(rootAddr, 53).String()), dnswire.NewQuery(2, name, dnswire.TypeA)); err == nil {
		t.Error("the root answered during its blackout")
	}
	if _, err := pipe.Exchange(context.Background(), server, dnswire.NewQuery(3, name, dnswire.TypeA)); err != nil {
		t.Errorf("the SLD server went dark with root and TLDs: %v", err)
	}
	if c := r.counts(); c.Dropped != 1 {
		t.Errorf("dropped %d, want 1", c.Dropped)
	}
	// A random subdomain, the flood's shape, does not exist.
	nx, err := pipe.Exchange(context.Background(), server, dnswire.NewQuery(4, leafName("x", 77, r.slds[5]), dnswire.TypeA))
	if err != nil || nx.RCode != dnswire.RCodeNXDomain {
		t.Errorf("random subdomain: %v, %v; want NXDOMAIN", nx, err)
	}
}

// A spread socket must show the server one client per source address and
// still get every reply back on its one port: the flood's saturation phase
// rests on it.
func TestSocketSpreadsSourceAddresses(t *testing.T) {
	server, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	from := []netip.Addr{netip.MustParseAddr("127.0.3.1"), netip.MustParseAddr("127.0.3.2"), netip.MustParseAddr("127.0.4.250")}
	sock, err := dial(server.LocalAddr().String(), from)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	buf := make([]byte, 64)
	for i := 0; i < 2*len(from); i++ {
		sock.send([]byte{byte(i)})
		server.SetReadDeadline(time.Now().Add(time.Second))
		n, peer, err := server.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d did not arrive: %v", i, err)
		}
		if got := peer.(*net.UDPAddr).AddrPort().Addr(); got != from[i%len(from)] {
			t.Errorf("datagram %d came from %s, want %s", i, got, from[i%len(from)])
		}
		server.WriteTo(buf[:n], peer)
		sock.wait(time.Second)
		if n, ok := sock.recv(buf); !ok || n != 1 || buf[0] != byte(i) {
			t.Errorf("reply %d did not come back to the socket", i)
		}
	}
}

// The blackout's keys: everything warmed or probed must be expected to
// resolve, the dark names must be the never-visited zones', and the
// fixed-rate picker must draw busy and dark keys only.
func TestBlackoutPopulation(t *testing.T) {
	zones := newRig(rigSpec{Seed: 1}).slds
	tr := workloadByName("blackout").traffic(zones)
	visited := map[dnswire.Name]bool{}
	for _, key := range tr.warm {
		name, _ := tr.src.expect(key)
		visited[name.Parent()] = true
		if tr.src.dark(key) {
			t.Fatalf("warm key %d is dark", key)
		}
	}
	if len(visited) != blackoutVisited {
		t.Errorf("the warm-up visits %d zones, want %d", len(visited), blackoutVisited)
	}
	busy := map[dnswire.Name]bool{}
	pick := tr.fixed(rand.New(rand.NewSource(1)))
	dark := 0
	for i := 0; i < 20000; i++ {
		key := pick()
		name, _ := tr.src.expect(key)
		if tr.src.dark(key) {
			dark++
			if visited[name.Parent()] {
				t.Fatalf("dark name %s is in a visited zone", name)
			}
		} else {
			busy[name.Parent()] = true
		}
	}
	if len(busy) != blackoutBusy || dark < 300 || dark > 500 {
		t.Errorf("%d busy zones and %d dark queries of 20000, want %d and about 400", len(busy), dark, blackoutBusy)
	}
	for _, key := range tr.probe {
		name, _ := tr.src.expect(key)
		if tr.src.dark(key) || !visited[name.Parent()] || busy[name.Parent()] {
			t.Fatalf("probe %s: dark, never visited, or in a busy zone", name)
		}
	}
	if len(tr.probe) != blackoutVisited-blackoutBusy {
		t.Errorf("%d probes", len(tr.probe))
	}
}

func TestPlansAreSeeded(t *testing.T) {
	mk := func(seed int64) openPlan {
		rng := rand.New(rand.NewSource(seed))
		return poissonPlan(rng, 1000, time.Second, zipfPicker(rng, 500))
	}
	a, b, c := mk(1), mk(1), mk(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different plans")
	}
	if reflect.DeepEqual(a.keys, c.keys) {
		t.Error("another seed gave the same keys")
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	if last := a.due[len(a.due)-1]; last != int64(time.Second) {
		t.Errorf("last arrival at %d ns, want the end of the phase", last)
	}
}

// BENCHMARK.json is a contract with the driver; it has to say what the
// code does.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, ms []metricSpec, want []metricName) {
		if len(ms) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(ms), len(want))
		}
		for i, m := range ms {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the code", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameOK.MatchString(m.Name) || !unitOK.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Error("too many metrics")
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json and the code disagree on name or why", i)
		}
		if !nameOK.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200", w.Name)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if st, err := os.Stat("../BENCHMARK.json"); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, over 64 KiB", err)
	}
}
