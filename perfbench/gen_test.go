package main

import (
	"testing"
	"time"
)

// blockedLoop returns an open loop of one worker and a two-arrival queue
// whose calls wait until release is closed.
func blockedLoop(t *testing.T) (*openLoop, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	g, err := newOpenLoop(1, 1, 2, 1, 1, func(*slot) {}, func(int, *slot) error {
		<-release
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.close)
	return g, release
}

func TestOpenLoopCountsNeverIssuedArrivals(t *testing.T) {
	g, release := blockedLoop(t)
	// Ten arrivals due within 10µs: one goes to the blocked worker, two
	// wait in the queue, seven find no free slot. The queued two are still
	// waiting when the 1ms grace ends, so they are abandoned.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ph, err := g.run(1e6, 10*time.Microsecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := ph.count(outOK); got != 1 {
		t.Errorf("%d arrivals served, want 1", got)
	}
	if got := ph.count(outNeverIssued); got != 9 {
		t.Errorf("%d arrivals never issued, want 9", got)
	}
	// The worker may not have taken the first arrival off the queue yet.
	if ph.backlog != 2 && ph.backlog != 3 {
		t.Errorf("backlog %d at the end of the schedule, want 2 or 3", ph.backlog)
	}
	if l := ph.latencies(); l.failed != 9 {
		t.Errorf("latencies count %d failed, want the 9 never issued", l.failed)
	}
	if n := len(ph.lateness().ok); n != 1 {
		t.Errorf("lateness has %d samples, want only the 1 issued arrival", n)
	}
}

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	g, release := blockedLoop(t)
	const hold = 30 * time.Millisecond
	go func() {
		time.Sleep(hold)
		close(release)
	}()
	// Three arrivals due at once; the queued two may wait a full second.
	ph, err := g.run(1e6, 3*time.Microsecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := ph.count(outOK); got != 3 {
		t.Fatalf("%d arrivals served, want 3", got)
	}
	for i := 1; i < 3; i++ {
		if ph.late[i] < hold-5*time.Millisecond {
			t.Errorf("arrival %d sent %v after its due time, want at least the %v the worker was held", i, ph.late[i], hold)
		}
		if ph.lat[i] < ph.late[i] {
			t.Errorf("arrival %d: latency %v shorter than its lateness %v", i, ph.lat[i], ph.late[i])
		}
	}
}
