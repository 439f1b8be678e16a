package transport

import (
	"sync"
	"sync/atomic"
)

// maxIdleWorkers is how many goroutines a Workers keeps waiting for work.
// Past it, a goroutine whose function returns exits instead of waiting.
const maxIdleWorkers = 64

// Workers runs functions on warm goroutines: Go hands the function to an
// idle goroutine when one is waiting, and starts one otherwise. A goroutine
// whose function returns waits for the next one, unless maxIdleWorkers
// already wait. A warm goroutine has grown its stack on earlier work, so
// handing it a function costs neither newproc nor stack growth, which a
// fresh goroutine pays on every deep call path it takes (a cache miss's
// resolution is one).
//
// The zero value is ready to use. Close makes the idle goroutines exit and
// waits for every goroutine Workers started; Go must not run concurrently
// with Close, and a Go after Close still runs its function.
type Workers struct {
	once    sync.Once
	work    chan func() // unbuffered: a send succeeds only into a waiting goroutine
	stop    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup
	idle    atomic.Int32
	started atomic.Uint64
}

func (w *Workers) init() {
	w.once.Do(func() {
		w.work = make(chan func())
		w.stop = make(chan struct{})
	})
}

// Go runs fn on an idle goroutine, or on a new one when none is waiting.
func (w *Workers) Go(fn func()) {
	w.init()
	select {
	case w.work <- fn:
		return
	default:
	}
	w.started.Add(1)
	w.wg.Add(1)
	go w.run(fn)
}

// run is one goroutine's life: its first function, then each one handed
// to it while it waited.
func (w *Workers) run(fn func()) {
	defer w.wg.Done()
	for fn != nil {
		fn()
		fn = w.next()
	}
}

// next waits, as one of at most maxIdleWorkers idle goroutines, for the
// next function; nil means exit.
func (w *Workers) next() func() {
	if w.idle.Add(1) > maxIdleWorkers {
		w.idle.Add(-1)
		return nil
	}
	defer w.idle.Add(-1)
	select {
	case fn := <-w.work:
		return fn
	case <-w.stop:
		return nil
	}
}

// Started reports how many goroutines Go has started.
func (w *Workers) Started() uint64 { return w.started.Load() }

// Close makes the idle goroutines exit and waits for every goroutine
// Workers started, the busy ones once their function returns.
func (w *Workers) Close() {
	w.init()
	w.closing.Do(func() { close(w.stop) })
	w.wg.Wait()
}
