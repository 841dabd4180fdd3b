package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// slot is one arrival of the open loop: its sequence number within the
// phase, the time it was due to be sent, and its lookup indices. Slots
// are recycled, so the loop allocates nothing per request.
type slot struct {
	seq  int   // arrival number within the phase
	id   int64 // arrival number across phases, the request id of its span
	due  time.Time
	rows [][]int
}

// Request outcomes recorded per arrival.
const (
	outPending uint8 = iota
	outOK
	outFailed      // the call returned an error
	outNeverIssued // dropped for lack of a free slot, or abandoned in the queue
)

// phase records one open-loop schedule: per arrival its outcome, latency
// from due time to completion and lateness from due time to send.
type phase struct {
	start   time.Time
	status  []uint8
	lat     []time.Duration // due -> done
	late    []time.Duration // due -> sent
	backlog int             // arrivals queued when the schedule ended
	wall    time.Duration   // first due time to last completion
	left    atomic.Int64    // arrivals issued and not yet finished
}

// latencies returns the phase's latencies with failures and never-issued
// arrivals counted as failed.
func (p *phase) latencies() latencies {
	var l latencies
	for i, st := range p.status {
		if st == outOK {
			l.ok = append(l.ok, p.lat[i].Seconds())
		} else {
			l.failed++
		}
	}
	return l
}

// ordered returns every arrival's latency in seconds in arrival order,
// +Inf for a failed or never-issued one.
func (p *phase) ordered() []float64 {
	out := make([]float64, len(p.status))
	for i, st := range p.status {
		out[i] = math.Inf(1)
		if st == outOK {
			out[i] = p.lat[i].Seconds()
		}
	}
	return out
}

// lateness returns how late each issued arrival was sent, in seconds.
func (p *phase) lateness() latencies {
	var l latencies
	for i, st := range p.status {
		if st == outOK || st == outFailed {
			l.ok = append(l.ok, p.late[i].Seconds())
		}
	}
	return l
}

// count returns how many arrivals ended with outcome st.
func (p *phase) count(st uint8) int {
	n := 0
	for _, s := range p.status {
		if s == st {
			n++
		}
	}
	return n
}

// openLoop sends requests on a fixed schedule regardless of completions.
// A fixed pool of workers bounds the requests in flight; an arrival that
// finds every worker busy waits in a bounded queue, and one that finds no
// free slot at all is never issued. Latency counts from the due time, so
// a stall charges every request it delays.
type openLoop struct {
	work    chan *slot
	free    chan *slot
	abandon atomic.Bool
	cur     atomic.Pointer[phase]
	pacer   *sleeper
	rng     *rand.Rand // inter-arrival gaps; pacer only
	issued  int64      // arrivals issued so far; pacer only
	wg      sync.WaitGroup
	// call sends one request on worker w and returns its error.
	call func(w int, s *slot) error
	// after, if set, runs on worker w after a successful call has been
	// timed, so work such as checking the response adds no latency.
	after func(w int, s *slot)
	// fill writes the next request's indices into s.rows.
	fill func(s *slot)
}

// newOpenLoop starts workers goroutines over a queue of queue arrivals.
// rowsLen gives the per-table index count of one request.
func newOpenLoop(seed int64, workers, queue, tables, rowsLen int, fill func(*slot), call func(w int, s *slot) error, after func(w int, s *slot)) (*openLoop, error) {
	pacer, err := newSleeper()
	if err != nil {
		return nil, err
	}
	g := &openLoop{
		pacer: pacer,
		rng:   rand.New(rand.NewSource(seed)),
		work:  make(chan *slot, workers+queue), // holds every slot, so a send never blocks
		free:  make(chan *slot, workers+queue),
		call:  call,
		after: after,
		fill:  fill,
	}
	for i := 0; i < workers+queue; i++ {
		s := &slot{rows: make([][]int, tables)}
		for t := range s.rows {
			s.rows[t] = make([]int, rowsLen)
		}
		g.free <- s
	}
	for w := 0; w < workers; w++ {
		g.wg.Add(1)
		go g.worker(w)
	}
	return g, nil
}

// worker sends queued arrivals until the loop is closed.
func (g *openLoop) worker(w int) {
	defer g.wg.Done()
	for s := range g.work {
		ph := g.cur.Load()
		if g.abandon.Load() {
			ph.status[s.seq] = outNeverIssued
		} else {
			sent := time.Now()
			err := g.call(w, s)
			done := time.Now()
			ph.late[s.seq] = sent.Sub(s.due)
			ph.lat[s.seq] = done.Sub(s.due)
			ph.status[s.seq] = outOK
			if err != nil {
				ph.status[s.seq] = outFailed
			} else if g.after != nil {
				g.after(w, s)
			}
		}
		g.free <- s
		ph.left.Add(-1)
	}
}

// run paces rate arrivals per second for dur as a Poisson process (seeded
// exponential gaps) and returns once every issued arrival has finished.
// Arrivals still queued grace after the schedule ends are abandoned and
// count as never issued.
func (g *openLoop) run(rate float64, dur, grace time.Duration) (*phase, error) {
	n := int(rate * dur.Seconds())
	ph := &phase{
		status: make([]uint8, n),
		lat:    make([]time.Duration, n),
		late:   make([]time.Duration, n),
	}
	g.cur.Store(ph)
	g.abandon.Store(false)
	ph.start = time.Now()
	due := ph.start
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			if err := g.pacer.sleep(wait); err != nil {
				return nil, err
			}
		}
		select {
		case s := <-g.free:
			g.fill(s)
			s.seq, s.id, s.due = i, g.issued, due
			g.issued++
			ph.left.Add(1)
			g.work <- s
		default:
			ph.status[i] = outNeverIssued
		}
	}
	ph.backlog = len(g.work)
	if err := g.drain(ph, due.Add(grace)); err != nil {
		return nil, err
	}
	ph.wall = time.Since(ph.start)
	return ph, nil
}

// drain waits for every issued arrival of ph to finish, abandoning the
// queued ones once the deadline passes.
func (g *openLoop) drain(ph *phase, deadline time.Time) error {
	for ph.left.Load() > 0 {
		if time.Now().After(deadline) {
			g.abandon.Store(true)
		}
		if err := g.pacer.sleep(100 * time.Microsecond); err != nil {
			return err
		}
	}
	return nil
}

// close stops the workers and waits for them.
func (g *openLoop) close() {
	close(g.work)
	g.wg.Wait()
	g.pacer.close()
}
