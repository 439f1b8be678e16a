package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxIdleWorkers is how many goroutines a Workers keeps waiting for work.
// Past it, a goroutine whose task returns exits instead of waiting.
const maxIdleWorkers = 64

// Task is what Workers runs. A value that already carries its work's
// state — a flight, a query being handled — is its own Task, so handing
// it over allocates nothing, where a closure over that state would be an
// object of its own.
type Task interface{ Run() }

// Workers runs tasks on warm goroutines: Go hands the task to an idle
// goroutine when one is waiting, and starts one otherwise. A goroutine
// whose task returns waits for the next one, unless maxIdleWorkers
// already wait. A warm goroutine has grown its stack on earlier work, so
// handing it a task costs neither newproc nor stack growth, which a
// fresh goroutine pays on every deep call path it takes (a cache miss's
// resolution is one).
//
// The zero value is ready to use. Close makes the idle goroutines exit and
// waits for every goroutine Workers started; Go must not run concurrently
// with Close, and a Go after Close still runs its task.
type Workers struct {
	once sync.Once
	// work is the one channel an idle goroutine waits on. It is
	// unbuffered, so a send succeeds only into a waiting goroutine. Close
	// sends each idle one nil, which tells it to exit, and never closes
	// the channel, so no Go can ever send on a closed one.
	work    chan Task
	closed  atomic.Bool
	wg      sync.WaitGroup
	idle    atomic.Int32
	started atomic.Uint64
}

func (w *Workers) init() {
	w.once.Do(func() { w.work = make(chan Task) })
}

// Go runs t on an idle goroutine, or on a new one when none is waiting.
func (w *Workers) Go(t Task) {
	w.init()
	select {
	case w.work <- t:
		return
	default:
	}
	w.started.Add(1)
	w.wg.Add(1)
	go w.run(t)
}

// run is one goroutine's life: its first task, then each one handed to
// it while it waited.
func (w *Workers) run(t Task) {
	defer w.wg.Done()
	for t != nil {
		t.Run()
		t = w.next()
	}
}

// next waits, as one of at most maxIdleWorkers idle goroutines, for the
// next task; nil means exit.
func (w *Workers) next() Task {
	if w.idle.Add(1) > maxIdleWorkers {
		w.idle.Add(-1)
		return nil
	}
	defer w.idle.Add(-1)
	if w.closed.Load() {
		return nil
	}
	return <-w.work // nil from Close
}

// Started reports how many goroutines Go has started.
func (w *Workers) Started() uint64 { return w.started.Load() }

// Close makes the idle goroutines exit and waits for every goroutine
// Workers started, the busy ones once their task returns.
func (w *Workers) Close() {
	w.init()
	w.closed.Store(true)
	// A goroutine counted idle either sees closed and leaves, or waits on
	// work, where a nil reaches it.
	for w.idle.Load() > 0 {
		select {
		case w.work <- nil:
		default:
			runtime.Gosched()
		}
	}
	w.wg.Wait()
}
