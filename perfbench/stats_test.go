package main

import (
	"math"
	"testing"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{n: 1000, want: 989, ok: true}, // a true p99: 10 samples beyond index 989
		{n: 5000, want: 4949, ok: true},
		{n: 500, want: 489, ok: true}, // p99 would rest on 5 samples; p98 keeps 10
		{n: 11, want: 0, ok: true},
		{n: 10, ok: false},
	} {
		got, ok := tailIndex(c.n, 0.99)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-1-got < minBeyond {
			t.Errorf("n=%d: only %d samples beyond index %d", c.n, c.n-1-got, got)
		}
	}
}

func TestQuantileCountsFailuresOverTheLimit(t *testing.T) {
	l := latencies{}
	for i := 0; i < 990; i++ {
		l.ok = append(l.ok, 0.001)
	}
	l.failed = 10
	if v, eff, ok := l.quantile(0.99); !ok || v != 0.001 || eff != 0.99 {
		t.Fatalf("10 failures of 1000: p99 = %v (p%v, %v), want 1ms at p99", v, eff*100, ok)
	}
	l.ok = l.ok[1:]
	l.failed = 11
	if v, _, _ := l.quantile(0.99); !math.IsInf(v, 1) {
		t.Fatalf("11 failures of 1000: p99 = %v, want +Inf (a failure ranks above every limit)", v)
	}
	if s := (stepResult{p99: 0.001, failed: 1}); s.passes(1, 0) {
		t.Fatal("a step with a failed request passed")
	}
}

func TestWindowedQuantileIgnoresAStallInOneWindow(t *testing.T) {
	xs := make([]float64, 3*p99Window)
	for i := range xs {
		xs[i] = 0.001
	}
	for i := 0; i < 50; i++ {
		xs[p99Window+i] = 0.5 // one stall delays 50 requests of the middle window
	}
	v, eff, windows, ok := windowedQuantile(xs, 0.99, p99Window)
	if !ok || windows != 3 || v != 0.001 || eff != 0.99 {
		t.Fatalf("got %v over %d windows (p%v, %v), want 1ms over 3 windows at p99", v, windows, eff*100, ok)
	}
	whole := latencies{ok: xs}
	if v, _, _ := whole.quantile(0.99); v != 0.5 {
		t.Fatalf("whole-phase p99 = %v, want the stall's 0.5", v)
	}
}

func TestClimbStopsAtFirstMissedStep(t *testing.T) {
	p99 := map[float64]float64{100: 0.001, 200: 0.002, 300: 0.050, 400: 0.001, 500: 0.001}
	var ran []float64
	best, steps := climb([]float64{100, 200, 300, 400, 500}, 0.010, 4, func(rate float64) stepResult {
		ran = append(ran, rate)
		return stepResult{rate: rate, p99: p99[rate]}
	})
	if best != 200 || len(steps) != 2+stepTries || len(ran) != 2+stepTries || ran[len(ran)-1] != 300 {
		t.Fatalf("max rate %v after runs %v; want 200, stopping at 300 once it missed %d times", best, ran, stepTries)
	}

	// A step that misses and then passes on a repeat does not stop the climb.
	misses := map[float64]int{200: stepTries - 1}
	best, _ = climb([]float64{100, 200, 300}, 0.010, 4, func(rate float64) stepResult {
		if misses[rate] > 0 {
			misses[rate]--
			return stepResult{rate: rate, p99: 0.050}
		}
		return stepResult{rate: rate, p99: 0.001}
	})
	if best != 300 {
		t.Fatalf("a step that missed %d times and then passed stopped the climb: max rate %v, want 300", stepTries-1, best)
	}

	best, _ = climb([]float64{100, 200}, 0.010, 4, func(rate float64) stepResult {
		return stepResult{rate: rate, p99: 0.001, backlog: 5}
	})
	if best != 0 {
		t.Fatalf("a step leaving a backlog of 5 (limit 4) passed: max rate %v", best)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	counts := make([]uint64, 112)
	counts[40] = 100
	lo, hi := histQuantile(counts, 0.01), histQuantile(counts, 0.99)
	if !(lo < hi) {
		t.Fatalf("quantiles inside one bucket do not increase: p1 %v, p99 %v", lo, hi)
	}
	if histQuantile(make([]uint64, 112), 0.5) != 0 {
		t.Fatal("empty histogram quantile is not 0")
	}
}
