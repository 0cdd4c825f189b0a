package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacer releases an open-loop schedule: the i-th query is due at
// start + i/rate, whatever happened to earlier queries. It sleeps with
// nanosleep(2) on an OS thread it holds, because time.Sleep goes
// through the runtime timer and overshoots sub-millisecond waits by most
// of a millisecond on a busy two-CPU box; that overshoot would be
// charged to the server as latency.
type pacer struct {
	start time.Time
	every time.Duration
}

func newPacer(start time.Time, rate float64) pacer {
	return pacer{start: start, every: time.Duration(float64(time.Second) / rate)}
}

// due returns when the i-th query is due.
func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.every) }

// sleepUntil blocks until t and returns how late it woke. The calling
// goroutine must hold its OS thread (runtime.LockOSThread), or nanosleep
// blocks whatever goroutine the thread runs next.
func sleepUntil(t time.Time) time.Duration {
	for {
		d := time.Until(t)
		if d <= 0 {
			return -d
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// EINTR only shortens the sleep; the loop re-checks the clock.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// run calls release(i, due, late) for i = 0.. until the schedule passes
// end, holding one OS thread for the duration, and returns how many
// queries it released.
func (p pacer) run(end time.Time, release func(i int, due time.Time, late time.Duration)) int {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	i := 0
	for ; ; i++ {
		due := p.due(i)
		if !due.Before(end) {
			return i
		}
		release(i, due, sleepUntil(due))
	}
}
