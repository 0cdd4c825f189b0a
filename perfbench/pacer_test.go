package main

import (
	"testing"
	"time"
)

// The pacer must never release a query early, and must release it close
// to its due time: lateness is charged to the server as latency.
func TestPacerLateness(t *testing.T) {
	const rate = 2000
	p := newPacer(time.Now().Add(2*time.Millisecond), rate)
	var late []float64
	n := p.run(p.start.Add(200*time.Millisecond), func(i int, due time.Time, l time.Duration) {
		if now := time.Now(); now.Before(due) {
			t.Errorf("query %d released %v early", i, due.Sub(now))
		}
		if !due.Equal(p.due(i)) {
			t.Errorf("query %d due %v, schedule says %v", i, due, p.due(i))
		}
		late = append(late, ms(l))
	})
	if n != 400 || len(late) != n {
		t.Fatalf("released %d queries (%d lateness samples), want 400", n, len(late))
	}
	// Generous for a loaded machine; the point is sub-millisecond
	// precision, which time.Sleep does not give on a busy box.
	if m := median(late); m > 1 {
		t.Fatalf("median lateness %.3f ms, want under 1 ms", m)
	}
}

func TestSleepUntilPast(t *testing.T) {
	if l := sleepUntil(time.Now().Add(-time.Millisecond)); l < time.Millisecond {
		t.Fatalf("lateness for a past deadline = %v, want >= 1ms", l)
	}
}
