package resolve

import (
	"context"
	"errors"
	"testing"
	"time"
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
