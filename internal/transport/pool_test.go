package transport

// Hammer tests for the pooled-buffer ownership rule: a wire buffer goes
// back to the pool the moment the socket op is done, which is only sound
// because dnswire.Unpack copies the wire and the resulting Message never
// aliases it. Run under -race these would flag any recycled buffer still
// feeding a live Message; the content checks below catch silent
// corruption even without the race detector.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// txtEchoHandler answers each query with a TXT record carrying the query
// name — response contents depend on the query, so any cross-query buffer
// reuse corrupting a live Message shows up as the wrong payload.
func txtEchoHandler() Handler {
	return HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.Answer = []dnswire.RR{{
			Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.TXT{Strings: []string{string(q.Question[0].Name)}},
		}}
		return r
	})
}

func checkEchoed(resp *dnswire.Message, wantID uint16, wantName dnswire.Name) error {
	if resp.ID != wantID {
		return fmt.Errorf("ID = %d, want %d", resp.ID, wantID)
	}
	if len(resp.Answer) != 1 {
		return fmt.Errorf("got %d answers, want 1", len(resp.Answer))
	}
	txt, ok := resp.Answer[0].Data.(dnswire.TXT)
	if !ok || len(txt.Strings) != 1 || txt.Strings[0] != string(wantName) {
		return fmt.Errorf("answer = %+v, want TXT %q", resp.Answer[0].Data, wantName)
	}
	return nil
}

// TestUDPPooledBuffersDoNotAliasMessages hammers the UDP client and
// server pooled paths concurrently, retains every response, and verifies
// all of them afterwards — long after their buffers have been recycled
// through many other exchanges.
func TestUDPPooledBuffersDoNotAliasMessages(t *testing.T) {
	srv := &UDPServer{Handler: txtEchoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	const goroutines = 8
	const perG = 30
	type held struct {
		id   uint16
		name dnswire.Name
		resp *dnswire.Message
	}
	results := make([][]held, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := &UDP{Timeout: 2 * time.Second}
			for i := 0; i < perG; i++ {
				id := uint16(g*1000 + i)
				name := dnswire.MustName(fmt.Sprintf("q%d-%d.%s.example.", g, i, strings.Repeat("pad", 5)))
				q := dnswire.NewQuery(id, name, dnswire.TypeTXT)
				q.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
				resp, err := u.Exchange(context.Background(), Addr(addr), q)
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				// Retain the Message; do NOT check yet. Its source buffer
				// is recycled by later iterations before we look at it.
				results[g] = append(results[g], held{id, name, resp})
			}
		}(g)
	}
	wg.Wait()

	for g, rs := range results {
		for i, h := range rs {
			if err := checkEchoed(h.resp, h.id, h.name); err != nil {
				t.Errorf("g%d i%d: retained response corrupted after buffer recycling: %v", g, i, err)
			}
		}
	}
}

// TestTCPPooledFramingDoesNotAliasMessages does the same over the TCP
// framing helpers: ReadTCPMessage's pooled body buffer is returned before
// the Message is, so retained responses must survive later reads.
func TestTCPPooledFramingDoesNotAliasMessages(t *testing.T) {
	srv := &TCPServer{Handler: txtEchoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	conn, err := dialTCP(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	const n = 50
	type held struct {
		id   uint16
		name dnswire.Name
		resp *dnswire.Message
	}
	var kept []held
	for i := 0; i < n; i++ {
		id := uint16(500 + i)
		name := dnswire.MustName(fmt.Sprintf("tcp-%d.example.", i))
		q := dnswire.NewQuery(id, name, dnswire.TypeTXT)
		if err := WriteTCPMessage(conn, q); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		kept = append(kept, held{id, name, resp})
	}
	for i, h := range kept {
		if err := checkEchoed(h.resp, h.id, h.name); err != nil {
			t.Errorf("query %d: retained response corrupted after buffer recycling: %v", i, err)
		}
	}
}
