package simclock

import (
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Errorf("Now() = %v, want %v", got, epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(90 * time.Second)
	if got, want := v.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceToPastIsNoop(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(time.Hour)
	v.AdvanceTo(epoch)
	if got, want := v.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	before := time.Now().Add(-time.Second)
	if got := c.Now(); got.Before(before) {
		t.Errorf("Real.Now() = %v is implausibly old", got)
	}
}
