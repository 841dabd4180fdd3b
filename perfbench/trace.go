package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
)

// Span names. Client spans wrap every netclient call; backend spans wrap
// every call netserve makes into the router it fronts.
const (
	spanClientEmbed uint8 = iota
	spanClientUpdate
	spanBackendEmbed
	spanBackendUpdate
)

var spanNames = [...]string{"netclient.embed", "netclient.update", "backend.embed", "backend.update"}

// span is one timed call. Client spans are roots whose req is the
// generator's arrival number (or the writer's update number); backend
// spans carry the backend's own call number and parent -1, because no
// request id crosses the wire: the two sides are joined in aggregate only.
type span struct {
	name       uint8
	id, parent int64
	req        int64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated buffer while it is on. Recording
// takes one atomic add; spans past the buffer's end are counted as
// dropped.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	backend atomic.Int64 // backend call numbers
}

// newTracer returns a tracer with room for capacity spans.
func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// record stores one span if the tracer is on and has room.
func (t *tracer) record(name uint8, parent, req int64, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = span{name: name, id: i + 1, parent: parent, req: req,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
}

// recorded returns the spans kept and how many were dropped. Call only
// after every recording goroutine has finished.
func (t *tracer) recorded() ([]span, int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// durations returns the durations in seconds of the recorded spans called
// name.
func (t *tracer) durations(name uint8) latencies {
	var l latencies
	spans, _ := t.recorded()
	for _, s := range spans {
		if s.name == name {
			l.ok = append(l.ok, float64(s.end-s.start)/1e9)
		}
	}
	return l
}

// write saves the recorded spans as CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans, dropped := t.recorded()
	fmt.Fprintf(w, "# %d spans, %d dropped; times in ns; backend spans have parent -1:"+
		" no request id crosses the wire, so client and backend spans join in aggregate only\n", len(spans), dropped)
	fmt.Fprintln(w, "name,id,parent,req,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.name], s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps the router netserve fronts with backend spans.
type tracedBackend struct {
	netserve.Backend
	tr *tracer
}

// EmbedInto implements netserve.Backend.
func (b *tracedBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	if !b.tr.on.Load() {
		return b.Backend.EmbedInto(dst, rows, batch)
	}
	start := time.Now()
	out, err := b.Backend.EmbedInto(dst, rows, batch)
	b.tr.record(spanBackendEmbed, -1, b.tr.backend.Add(1), start, time.Now())
	return out, err
}

// ApplyUpdates implements netserve.Backend.
func (b *tracedBackend) ApplyUpdates(ups []runtime.TableUpdate) error {
	if !b.tr.on.Load() {
		return b.Backend.ApplyUpdates(ups)
	}
	start := time.Now()
	err := b.Backend.ApplyUpdates(ups)
	b.tr.record(spanBackendUpdate, -1, b.tr.backend.Add(1), start, time.Now())
	return err
}
