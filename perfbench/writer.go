package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// writer is the closed-loop trainer: it sends one SCATTER_ADD update,
// waits for the ack, applies the update to the reference, spends think
// on its next step (a trainer computes gradients between updates), and
// sends the next. Latencies are kept only while recording is on.
type writer struct {
	client *netclient.Client
	ref    *reference
	tr     *tracer
	gen    *workload.Generator
	rng    *rand.Rand
	g      geometry
	rows   int // rows per table in one update
	think  time.Duration
	pause  *sleeper

	recording atomic.Bool
	mu        sync.Mutex
	lat       latencies // recorded ack latencies
	err       error     // first failed update; the reference is no longer exact after it

	stop chan struct{}
	done chan struct{}
}

// newWriter returns a writer drawing update rows from gen.
func newWriter(client *netclient.Client, ref *reference, tr *tracer, gen *workload.Generator, seed int64, g geometry, rows int, think time.Duration) (*writer, error) {
	pause, err := newSleeper()
	if err != nil {
		return nil, err
	}
	return &writer{client: client, ref: ref, tr: tr, gen: gen, rng: rand.New(rand.NewSource(seed)),
		g: g, rows: rows, think: think, pause: pause}, nil
}

// start runs the loop until halt.
func (w *writer) start() {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go w.loop()
}

// halt stops the loop and waits for its last update to be acked.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// next draws one update: rows rows of every table, small random gradients.
func (w *writer) next() []runtime.TableUpdate {
	ups := make([]runtime.TableUpdate, w.g.Tables)
	for t := range ups {
		grads := tensor.New(w.rows, w.g.Dim)
		data := grads.Data()
		for i := range data {
			data[i] = (w.rng.Float32() - 0.5) / 64
		}
		ups[t] = runtime.TableUpdate{Table: t, Rows: w.gen.Indices(w.rows), Grads: grads}
	}
	return ups
}

func (w *writer) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		ups := w.next()
		n := w.ref.begin(ups)
		start := time.Now()
		err := w.client.Update(ups)
		end := time.Now()
		w.tr.record(spanClientUpdate, 0, n, start, end)
		w.mu.Lock()
		if err != nil {
			w.err = err
			w.lat.failed++
			w.mu.Unlock()
			return
		}
		if w.recording.Load() {
			w.lat.ok = append(w.lat.ok, end.Sub(start).Seconds())
		}
		w.mu.Unlock()
		w.ref.ack(ups)
		if err := w.pause.sleep(w.think); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			return
		}
	}
}

// close releases the writer's timer; the loop must be halted.
func (w *writer) close() error { return w.pause.close() }

// take returns the recorded latencies and the first error.
func (w *writer) take() (latencies, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lat, w.err
}
