package dnswire

// Steady-state allocation budgets for the wire hot path. These are hard
// ceilings, not measurements: if a change pushes Pack or Unpack back
// above them, the test fails and the allocation has to be justified here.

import (
	"runtime"
	"testing"

	"resilientdns/internal/race"
)

// TestAppendPackSteadyStateAllocs: packing into a caller-reused buffer
// must not allocate at all in steady state — the pooled Packer reuses its
// compression map and the destination has capacity.
func TestAppendPackSteadyStateAllocs(t *testing.T) {
	msg := sampleMessage()
	buf := make([]byte, 0, 1024)
	// Warm the packer pool and grow the compression map once.
	if _, err := msg.AppendPack(buf); err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := msg.AppendPack(buf); err != nil {
			t.Fatalf("AppendPack: %v", err)
		}
	})
	if allocs > 0 && !race.Enabled {
		t.Errorf("AppendPack into reused buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestPackSteadyStateAllocs: plain Pack owns its output, so exactly one
// allocation — the returned wire — is the budget.
func TestPackSteadyStateAllocs(t *testing.T) {
	msg := sampleMessage()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := msg.Pack(); err != nil {
			t.Fatalf("Pack: %v", err)
		}
	})
	if allocs > 1 && !race.Enabled {
		t.Errorf("Pack allocates %.1f/op, want ≤ 1 (the returned wire)", allocs)
	}
}

// TestUnpackSteadyStateAllocs: Unpack pays one Message with its one
// question, one array the three record sections share, one string per
// distinct name — repeated names hit the per-message offset cache — and
// one boxed value per record, and copies no wire for records that keep
// none of it. The sample message (1 question, 1 answer, 2 authority, 2
// additional) must stay within that budget.
func TestUnpackSteadyStateAllocs(t *testing.T) {
	msg := sampleMessage()
	wire, err := msg.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unpack(wire); err != nil {
			t.Fatalf("Unpack: %v", err)
		}
	})
	// Budget: Message with its question + the sections' one array + 4
	// name strings (www, example, ns1, ns2; every other name is a pointer
	// the cache resolves) + 5 boxed record values — 11 — and never the
	// decoder: the unpacker, with its 255-byte name scratch and name
	// cache, lives on Unpack's stack. An unpacker that escapes is one
	// object more and ~900 bytes more, which TestUnpackSteadyStateBytes
	// catches. Anything above 11 means the wire is copied for records that
	// keep none of it, a field is no longer sliced from the one copy, a
	// section or the question has its own slice again, the name cache
	// stopped hitting, or the decoder escaped.
	if allocs > 11 && !race.Enabled {
		t.Errorf("Unpack allocates %.1f/op, want ≤ 11", allocs)
	}
}

// TestUnpackSteadyStateBytes caps the bytes behind those objects. The
// sample message (117 bytes on the wire) unpacks into 520: the Message
// with its question, the sections' array and the names (640 while every
// Unpack copied the wire).
// The ceiling leaves room for size-class rounding, not for the ~900-byte
// unpacker, which moved to the heap on every call while an error path
// handed fmt a slice of its name scratch (1 536 bytes per Unpack).
func TestUnpackSteadyStateBytes(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	const runs = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Unpack(wire); err != nil {
			t.Fatalf("Unpack: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 640 {
		t.Errorf("Unpack allocates %d bytes/op, want ≤ 640", got)
	}
}
