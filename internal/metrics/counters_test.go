package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"resilientdns/internal/race"
)

type innerSet struct {
	Sent   uint64
	Failed uint64
}

type outerSet struct {
	In      uint64
	Renamed uint64 `json:"re_named,omitempty"`
	innerSet
	Last uint64 `json:"last"`
}

// TestPairsDeclarationOrder: names and values come out in declaration
// order, embedded sets flattened in place, `json` tags honoured.
func TestPairsDeclarationOrder(t *testing.T) {
	live := NewSet[outerSet]()
	Inc(&live.In)
	Add(&live.Renamed, 2)
	Add(&live.Failed, 4)
	Add(&live.Last, 5)
	want := []Pair{{"In", 1}, {"re_named", 2}, {"Sent", 0}, {"Failed", 4}, {"last", 5}}
	if got := Pairs(Snapshot(live)); !reflect.DeepEqual(got, want) {
		t.Errorf("Pairs = %v, want %v", got, want)
	}
}

func TestSnapshotAndSum(t *testing.T) {
	live := NewSet[outerSet]()
	Add(&live.In, 3)
	Add(&live.Sent, 7)
	snap := Snapshot(live)
	if snap.In != 3 || snap.Sent != 7 || snap.Last != 0 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	Inc(&live.In)
	if snap.In != 3 {
		t.Error("a snapshot moved with the live set")
	}
	sum := Sum(snap, outerSet{In: 10, innerSet: innerSet{Sent: 1, Failed: 2}, Last: 9})
	want := outerSet{In: 13, innerSet: innerSet{Sent: 8, Failed: 2}, Last: 9}
	if sum != want {
		t.Errorf("Sum = %+v, want %+v", sum, want)
	}
	if snap.In != 3 {
		t.Error("Sum modified its argument")
	}
}

// TestMalformedSetPanics: a field a reader cannot report is a start-up
// panic naming it, never a silent skip.
func TestMalformedSetPanics(t *testing.T) {
	mustPanic := func(name, wantMsg string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want one mentioning %q", name, msg, wantMsg)
			}
		}()
		fn()
	}
	mustPanic("unexported field", "hidden", func() {
		NewSet[struct {
			Seen   uint64
			hidden uint64
		}]()
	})
	mustPanic("int field", "Count", func() { NewSet[struct{ Count int }]() })
	mustPanic("named non-embedded struct", "Inner", func() { NewSet[struct{ Inner innerSet }]() })
	mustPanic("embedded set with a bad field", "Name", func() {
		type bad struct{ Name string }
		NewSet[struct {
			OK uint64
			bad
		}]()
	})
	mustPanic("not a struct", "non-struct", func() { NewSet[uint64]() })
	mustPanic("Pairs of a malformed value", "Count", func() { Pairs(struct{ Count int }{}) })
}

// TestIncrementDoesNotAllocate: the hot path is one atomic add — no
// reflection, no allocation.
func TestIncrementDoesNotAllocate(t *testing.T) {
	live := NewSet[outerSet]()
	if n := testing.AllocsPerRun(1000, func() {
		Inc(&live.In)
		Add(&live.Failed, 3)
	}); n != 0 && !race.Enabled {
		t.Errorf("an increment allocates %v times, want 0", n)
	}
	if got := Load(&live.Failed); got != 3*1001 {
		t.Errorf("Failed = %d, want %d", got, 3*1001)
	}
}

// TestConcurrentAddsAndSnapshots runs writers against readers (under
// -race in CI); snapshots only ever grow, and the final one holds every
// add.
func TestConcurrentAddsAndSnapshots(t *testing.T) {
	const writers, readers, perWriter = 8, 2, 20000
	live := NewSet[outerSet]()
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var last outerSet
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := Snapshot(live)
				if s.In < last.In || s.Failed < last.Failed {
					t.Errorf("snapshot went backwards: %+v after %+v", s, last)
					return
				}
				last = s
			}
		}()
	}
	for i := 0; i < writers; i++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for j := 0; j < perWriter; j++ {
				Inc(&live.In)
				Add(&live.Failed, 2)
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	want := outerSet{In: writers * perWriter, innerSet: innerSet{Failed: 2 * writers * perWriter}}
	if got := Snapshot(live); got != want {
		t.Errorf("final snapshot = %+v, want %+v", got, want)
	}
}
