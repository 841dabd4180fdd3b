package main

import (
	"math"
	"sync"
	"sync/atomic"

	"tensordimm/internal/embed"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
)

// reference is the benchmark's own copy of the model, rebuilt from the
// seed apart from the system's copy. Acked updates are applied to it in
// ack order. A read is checked only on the pooling groups it could not
// have raced an update on: groups whose rows were last updated by an
// update acked before the read was sent.
type reference struct {
	mu        sync.RWMutex
	layer     *embed.Layer
	dim       int
	lastTouch [][]int64 // per table and row: number of the last update started on it, -1 if none
	acked     atomic.Int64
	started   int64 // updates started; writer goroutine only
}

// newReference builds the reference model for cfg from seed.
func newReference(cfg recsys.Config, seed int64) (*reference, error) {
	m, err := recsys.Build(cfg, seed)
	if err != nil {
		return nil, err
	}
	r := &reference{layer: m.Embedding, dim: cfg.EmbDim, lastTouch: make([][]int64, cfg.Tables)}
	for t := range r.lastTouch {
		r.lastTouch[t] = make([]int64, cfg.TableRows)
		for i := range r.lastTouch[t] {
			r.lastTouch[t][i] = -1
		}
	}
	return r, nil
}

// begin marks the rows of the next update as in flight and returns the
// update's number. The writer calls it before sending the update.
func (r *reference) begin(ups []runtime.TableUpdate) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.started
	r.started++
	for _, up := range ups {
		for _, row := range up.Rows {
			r.lastTouch[up.Table][row] = n
		}
	}
	return n
}

// ack applies an acknowledged update to the reference. Updates must be
// acked in the order they began.
func (r *reference) ack(ups []runtime.TableUpdate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, up := range ups {
		runtime.AccumulateGolden(r.layer.Tables[up.Table], up)
	}
	r.acked.Add(1)
}

// check compares a read response bit-for-bit with embed.Layer.Forward on
// the reference. ackedAtSend is r.acked as read before the request was
// sent. It returns the pooling groups compared and the ones that differ.
func (r *reference) check(rows [][]int, batch int, got []float32, ackedAtSend int64) (checked, bad int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	want, err := r.layer.Forward(rows, batch)
	if err != nil {
		return 0, 0, err
	}
	red := r.layer.Reduction
	width := len(rows) * r.dim
	for b := 0; b < batch; b++ {
		wantRow := want.Row(b)
	group:
		for t := range rows {
			for _, row := range rows[t][b*red : (b+1)*red] {
				if r.lastTouch[t][row] >= ackedAtSend {
					continue group
				}
			}
			checked++
			lo := b*width + t*r.dim
			for k := 0; k < r.dim; k++ {
				if math.Float32bits(got[lo+k]) != math.Float32bits(wantRow[t*r.dim+k]) {
					bad++
					break
				}
			}
		}
	}
	return checked, bad, nil
}

// touched returns, per table, the rows any update has touched.
func (r *reference) touched() [][]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([][]int, len(r.lastTouch))
	for t, rows := range r.lastTouch {
		for row, n := range rows {
			if n >= 0 {
				out[t] = append(out[t], row)
			}
		}
	}
	return out
}
