package simnet

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func answering() transport.Handler {
	return transport.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.Answer = []dnswire.RR{{
			Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
		}}
		return r
	})
}

func newNet(t *testing.T) (*Network, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	n := New(clk)
	n.Register(&Host{Addr: "10.0.0.1", Zone: dnswire.MustName("edu."), Handler: answering()})
	return n, clk
}

func query() *dnswire.Message {
	return dnswire.NewQuery(9, dnswire.MustName("www.edu."), dnswire.TypeA)
}

func TestExchangeDeliversAndChargesRTT(t *testing.T) {
	n, clk := newNet(t)
	resp, err := n.Exchange(context.Background(), "10.0.0.1", query())
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(resp.Answer) != 1 {
		t.Errorf("answer = %v", resp.Answer)
	}
	if got, want := clk.Now(), epoch.Add(n.RTT); !got.Equal(want) {
		t.Errorf("clock = %v, want %v", got, want)
	}
	st := n.Stats()
	if st.Exchanges != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExchangeUnknownHost(t *testing.T) {
	n, clk := newNet(t)
	_, err := n.Exchange(context.Background(), "10.9.9.9", query())
	if !errors.Is(err, transport.ErrServerUnreachable) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	if got, want := clk.Now(), epoch.Add(n.Timeout); !got.Equal(want) {
		t.Errorf("clock = %v, want timeout charge %v", got, want)
	}
}

func TestExchangeDuringAttackTimesOut(t *testing.T) {
	n, clk := newNet(t)
	n.SetAttack(attack.Schedule{attack.NewWindow(epoch, time.Hour, dnswire.MustName("edu."))})
	_, err := n.Exchange(context.Background(), "10.0.0.1", query())
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if n.Stats().TimedOut != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
	// After the attack window, the host answers again.
	clk.AdvanceTo(epoch.Add(2 * time.Hour))
	if _, err := n.Exchange(context.Background(), "10.0.0.1", query()); err != nil {
		t.Fatalf("post-attack Exchange: %v", err)
	}
}

func TestAttackOnOtherZoneDoesNotAffectHost(t *testing.T) {
	n, _ := newNet(t)
	n.SetAttack(attack.Schedule{attack.NewWindow(epoch, time.Hour, dnswire.MustName("com."))})
	if _, err := n.Exchange(context.Background(), "10.0.0.1", query()); err != nil {
		t.Fatalf("Exchange: %v", err)
	}
}

func TestExchangeRoundTripsWireFormat(t *testing.T) {
	// A handler returning an unpackable message must surface an error,
	// proving the simulated network exercises real encoding.
	clk := simclock.NewVirtual(epoch)
	n := New(clk)
	n.Register(&Host{Addr: "10.0.0.1", Zone: dnswire.MustName("edu."), Handler: transport.HandlerFunc(
		func(q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			r.Answer = []dnswire.RR{{Name: "x.", Class: dnswire.ClassIN}} // nil Data
			return r
		})})
	if _, err := n.Exchange(context.Background(), "10.0.0.1", query()); err == nil {
		t.Error("unpackable response delivered without error")
	}
}

func TestHostsCount(t *testing.T) {
	n, _ := newNet(t)
	if n.Hosts() != 1 {
		t.Errorf("Hosts = %d", n.Hosts())
	}
}
