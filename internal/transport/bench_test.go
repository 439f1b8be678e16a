package transport

// Micro-benchmarks for the socket hot paths: full loopback exchanges
// (client pack/write/read/unpack plus the server read loop and pooled
// response path) and the TCP framing helpers in isolation.

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// BenchmarkUDPExchange measures one full query/response round trip over
// real loopback sockets — the end-to-end path dnsperf exercises.
func BenchmarkUDPExchange(b *testing.B) {
	srv := &UDPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(1, dnswire.MustName("www.example.com"), dnswire.TypeA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Exchange(context.Background(), Addr(addr), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUDPExchangeParallel drives the server's read loop from
// concurrent clients.
func BenchmarkUDPExchangeParallel(b *testing.B) {
	srv := &UDPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := &UDP{Timeout: 2 * time.Second}
		q := dnswire.NewQuery(1, dnswire.MustName("www.example.com"), dnswire.TypeA)
		for pb.Next() {
			if _, err := u.Exchange(context.Background(), Addr(addr), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteTCPMessage measures framed packing (single write, pooled
// scratch) with the socket cost excluded.
func BenchmarkWriteTCPMessage(b *testing.B) {
	q := dnswire.NewQuery(1, dnswire.MustName("www.example.com"), dnswire.TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTCPMessage(io.Discard, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadTCPMessage measures framed reading + unpack from a
// pre-framed in-memory stream.
func BenchmarkReadTCPMessage(b *testing.B) {
	var framed bytes.Buffer
	q := dnswire.NewQuery(1, dnswire.MustName("www.example.com"), dnswire.TypeA)
	if err := WriteTCPMessage(&framed, q); err != nil {
		b.Fatal(err)
	}
	wire := framed.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTCPMessage(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}
