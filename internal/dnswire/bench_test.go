package dnswire

// Micro-benchmarks for the wire hot path (`go test -bench .` in this
// directory). The sample message is the round-trip fixture: 1 question,
// 1 answer, 2 authority, 2 additional, with heavily compressible names.

import "testing"

// BenchmarkPack measures one-shot packing (fresh output buffer per call).
func BenchmarkPack(b *testing.B) {
	msg := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPack measures packing into a caller-reused buffer — the
// transport servers' steady state, which must be allocation-free.
func BenchmarkAppendPack(b *testing.B) {
	msg := sampleMessage()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.AppendPack(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpack measures arena-style decoding: one wire copy, fields
// sliced from it, repeated names served from the per-message cache.
func BenchmarkUnpack(b *testing.B) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
