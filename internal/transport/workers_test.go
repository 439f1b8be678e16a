package transport

import (
	"runtime"
	"sync"
	"testing"
)

// TestWorkersReuseIdleGoroutine: sequential work runs on the one warm
// goroutine the first Go started. On one P the goroutine that sent done
// runs on until it waits for work again, so each Go finds it waiting; on
// more, a Go that comes between a goroutine counting itself idle and its
// wait starts another goroutine, which only costs a goroutine.
func TestWorkersReuseIdleGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var w Workers
	defer w.Close()
	done := make(chan struct{})
	for i := 0; i < 100; i++ {
		w.Go(func() { done <- struct{}{} })
		<-done
		waitFor(t, "the goroutine to go idle", func() bool { return w.idle.Load() == 1 })
	}
	if n := w.Started(); n != 1 {
		t.Errorf("100 sequential functions started %d goroutines, want 1", n)
	}
}

// TestWorkersIdleCap: past maxIdleWorkers, a goroutine whose function
// returns exits instead of waiting; Close makes the idle ones exit and
// waits for them; a Go after Close still runs its function.
func TestWorkersIdleCap(t *testing.T) {
	before := runtime.NumGoroutine()
	var w Workers
	const n = maxIdleWorkers + 36
	release := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(n)
	for i := 0; i < n; i++ {
		w.Go(func() {
			defer ran.Done()
			<-release
		})
	}
	if got := w.Started(); got != n {
		t.Fatalf("%d concurrent functions started %d goroutines, want %d", n, got, n)
	}
	close(release)
	ran.Wait()
	waitFor(t, "the surplus goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before+maxIdleWorkers
	})
	if idle := w.idle.Load(); idle != maxIdleWorkers {
		t.Errorf("%d goroutines idle, want the cap %d", idle, maxIdleWorkers)
	}

	// Close has waited for every goroutine to finish; the last of them
	// may take a moment more to be gone from the count.
	w.Close()
	waitFor(t, "the idle goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	done := make(chan struct{})
	w.Go(func() { close(done) })
	<-done
	w.Close()
}
