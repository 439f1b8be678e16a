package resolve

import (
	"context"
	"errors"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/race"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

type attemptKey struct{}

// TestAttemptContext: an attempt's context reports its deadline and the
// flight's values, not the flight's cancellation; Done, made only when
// asked for, closes at the deadline, and end closes it as cancel would.
// The next attempt starts clean.
func TestAttemptContext(t *testing.T) {
	flight, cancel := context.WithCancel(context.WithValue(context.Background(), attemptKey{}, "v"))
	cancel()
	var c attemptCtx

	c.begin(flight, time.Now().Add(30*time.Millisecond))
	if d, ok := c.Deadline(); !ok || time.Until(d) <= 0 {
		t.Fatalf("Deadline() = %v, %v; want the attempt's, ahead", d, ok)
	}
	if c.Value(attemptKey{}) != "v" || c.Err() != nil {
		t.Fatalf("Value %v, Err %v: want the flight's value and no error from its cancellation", c.Value(attemptKey{}), c.Err())
	}
	select {
	case <-c.Done():
		if !errors.Is(c.Err(), context.DeadlineExceeded) {
			t.Errorf("Err() = %v after the deadline, want DeadlineExceeded", c.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Done never closed at the attempt's deadline")
	}
	c.end()

	c.begin(flight, time.Now().Add(time.Hour))
	done := c.Done()
	if c.Err() != nil {
		t.Fatalf("a new attempt starts with Err %v", c.Err())
	}
	c.end()
	select {
	case <-done:
	default:
		t.Fatal("end left Done open")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Errorf("Err() = %v after end, want Canceled", c.Err())
	}
}

// TestFetchQueryReuse: a fetch's query goes back to fetchQueries when
// Fetch returns, and the next fetch reuses it; the first fetch's response
// is unchanged by that, over every Transport the resolver runs on here:
// Pipe, simnet and UDP.
func TestFetchQueryReuse(t *testing.T) {
	z := zone.New(dnswire.MustName("example."))
	z.MustAdd(rrNS("example.", 300, "ns1.example."))
	z.MustAdd(rrA("ns1.example.", 300, "10.0.0.1"))
	z.MustAdd(rrA("a.example.", 300, "192.0.2.1"))
	z.MustAdd(rrA("b.example.", 300, "192.0.2.2"))
	auth := authserver.New(z)

	udp := &transport.UDPServer{Handler: auth}
	udpAddr, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	clock := simclock.NewVirtual(epoch)
	network := simnet.New(clock)
	network.Register(&simnet.Host{Addr: "10.0.0.1", Zone: dnswire.MustName("example."), Handler: auth})
	for _, tc := range []struct {
		name   string
		tr     transport.Transport
		server transport.Addr
	}{
		{"Pipe", &transport.Pipe{Handlers: map[transport.Addr]transport.Handler{"10.0.0.1": auth}}, "10.0.0.1"},
		{"simnet", network, "10.0.0.1"},
		{"UDP", &transport.UDP{Timeout: 2 * time.Second}, transport.Addr(udpAddr)},
	} {
		var queries []*dnswire.Message
		r := newTestResolver(t, Config{Clock: clock, Transport: transport.Exchanger(
			func(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				queries = append(queries, q)
				return tc.tr.Exchange(ctx, server, q)
			})})
		fetch := func(name string) *dnswire.Message {
			resp, err := r.engine.Fetch(context.Background(), nil, []transport.Addr{tc.server}, dnswire.MustName(name), dnswire.TypeA)
			if err != nil || len(resp.Answer) != 1 {
				t.Fatalf("%s: fetch %s: %v, %v", tc.name, name, resp, err)
			}
			return resp
		}
		// A collection between the two fetches empties the pool; try
		// again until the second fetch reuses the first one's query.
		for try := 0; ; try++ {
			queries = queries[:0]
			first := fetch("a.example.")
			want := first.String()
			fetch("b.example.")
			if got := first.String(); got != want {
				t.Fatalf("%s: the first response changed when its query was reused:\n%s\nwant\n%s", tc.name, got, want)
			}
			if queries[0] == queries[1] {
				break
			}
			if try == 10 {
				if !race.Enabled {
					t.Errorf("%s: ten pairs of fetches never reused a query", tc.name)
				}
				break
			}
		}
	}
}
