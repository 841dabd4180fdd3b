package main

import (
	"math"
	"testing"

	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

func smallReference(t *testing.T) (*reference, [][]int) {
	t.Helper()
	cfg := recsys.Config{Name: "t", Tables: 2, Reduction: 2, FCLayers: 1, EmbDim: 16, TableRows: 64, Hidden: []int{4}}
	r, err := newReference(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r, [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}} // batch 2, reduction 2
}

func TestCheckFlagsOneFlippedBit(t *testing.T) {
	r, rows := smallReference(t)
	want, err := r.layer.Forward(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float32(nil), want.Data()...)
	if n, bad, err := r.check(rows, 2, got, 0); err != nil || n != 4 || bad != 0 {
		t.Fatalf("exact response: %d groups checked, %d bad, %v; want 4, 0", n, bad, err)
	}
	got[21] = math.Float32frombits(math.Float32bits(got[21]) ^ 1)
	if n, bad, _ := r.check(rows, 2, got, 0); n != 4 || bad != 1 {
		t.Fatalf("one flipped bit: %d groups checked, %d bad; want 4, 1", n, bad)
	}
}

func TestCheckSkipsGroupsRacingAnUpdate(t *testing.T) {
	r, rows := smallReference(t)
	up := []runtime.TableUpdate{{Table: 0, Rows: []int{3}, Grads: tensor.New(1, 16)}}
	up[0].Grads.Data()[0] = 1
	before, err := r.layer.Forward(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]float32(nil), before.Data()...)
	// Update 0 is in flight: a read sent now may see row 3 either way, so
	// the group holding row 3 (table 0, sample 1) is not compared.
	r.begin(up)
	if n, bad, _ := r.check(rows, 2, stale, r.acked.Load()); n != 3 || bad != 0 {
		t.Fatalf("read racing an update: %d checked, %d bad; want 3, 0", n, bad)
	}
	r.ack(up)
	// Once acked before the read is sent, the group must show the update.
	if n, bad, _ := r.check(rows, 2, stale, r.acked.Load()); n != 4 || bad != 1 {
		t.Fatalf("stale read after the ack: %d checked, %d bad; want 4, 1", n, bad)
	}
}
