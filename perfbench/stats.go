package main

import (
	"math"
	"sort"

	"tensordimm/internal/telemetry"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 500 samples would rest on five, so the reported
// percentile is lowered until ten samples back it.
const minBeyond = 10

// rankIndex is the nearest-rank index of quantile q among n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// tailIndex is rankIndex lowered so that at least minBeyond samples lie
// beyond it: the highest percentile, at most q, the sample supports. The
// percentile it stands for is (i+1)/n. ok is false when n has no sample
// with minBeyond others beyond it.
func tailIndex(n int, q float64) (i int, ok bool) {
	i = min(rankIndex(n, q), n-1-minBeyond)
	return i, i >= 0
}

// latencies is one phase's request outcomes: successful latencies in
// seconds and the number of failed requests, which rank above every
// latency limit.
type latencies struct {
	ok     []float64
	failed int
}

// ordered returns the outcomes with the failures appended as +Inf, for
// latencies kept in arrival order.
func (l *latencies) ordered() []float64 {
	out := append([]float64(nil), l.ok...)
	for i := 0; i < l.failed; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}

// n is the number of requests attempted.
func (l *latencies) n() int { return len(l.ok) + l.failed }

// quantile returns the nearest-rank q-quantile in seconds, with failures
// ranked last (+Inf when the rank lands on one). For q above 0.5 the tail
// rule applies; eff is the percentile actually reported. ok is false when
// there are too few samples.
func (l *latencies) quantile(q float64) (v, eff float64, ok bool) {
	n := l.n()
	if n == 0 {
		return 0, 0, false
	}
	sorted := append([]float64(nil), l.ok...)
	sort.Float64s(sorted)
	i := rankIndex(n, q)
	if q > 0.5 {
		if i, ok = tailIndex(n, q); !ok {
			return 0, 0, false
		}
	}
	eff = float64(i+1) / float64(n)
	if i >= len(sorted) {
		return math.Inf(1), eff, true
	}
	return sorted[i], eff, true
}

// Window sizes of windowedQuantile: the smallest windows that leave ten
// samples beyond a p90 and a p99.
const (
	p90Window = 100
	p99Window = 1000
)

// windowedQuantile splits outcomes, in arrival order with failures as
// +Inf, into consecutive windows of size samples (the last window takes
// the remainder) and returns the median over windows of each window's
// q-quantile (tail rule applied), so one stall moves one window, not the
// result. Fewer than two full windows make one window of everything. eff
// is the percentile each window reports at its smallest size.
func windowedQuantile(xs []float64, q float64, size int) (v, eff float64, windows int, ok bool) {
	k := max(1, len(xs)/size)
	per := make([]float64, 0, k)
	eff = 1
	for w := 0; w < k; w++ {
		lo, hi := w*size, (w+1)*size
		if w == k-1 {
			hi = len(xs)
		}
		l := latencies{}
		for _, x := range xs[lo:hi] {
			if math.IsInf(x, 1) {
				l.failed++
			} else {
				l.ok = append(l.ok, x)
			}
		}
		wv, we, wok := l.quantile(q)
		if !wok {
			return 0, 0, 0, false
		}
		per = append(per, wv)
		eff = math.Min(eff, we)
	}
	return median(per), eff, k, true
}

// stepResult is one rate-ladder step as the climb judges it.
type stepResult struct {
	rate    float64
	p99     float64 // seconds; +Inf if the tail rank is a failure
	failed  int
	backlog int // arrivals still waiting for a worker when the schedule ended
}

// passes reports whether a step meets the workload's latency limit with
// no failures and no backlog left behind.
func (s stepResult) passes(limit float64, maxBacklog int) bool {
	return s.failed == 0 && s.p99 <= limit && s.backlog <= maxBacklog
}

// stepTries is how many times the climb runs a ladder step before it
// counts as missed: a transient host stall can fail one 1.2 s step, or
// two, without the stack being at its capacity.
const stepTries = 3

// climb walks the ladder upward and stops at the first step that misses
// stepTries times in a row. The result is the highest rate below the
// stopping step that passed (0 if the first step missed) and every run
// made.
func climb(ladder []float64, limit float64, maxBacklog int, run func(rate float64) stepResult) (float64, []stepResult) {
	best := 0.0
	var steps []stepResult
	for _, rate := range ladder {
		passed := false
		for try := 0; try < stepTries && !passed; try++ {
			s := run(rate)
			steps = append(steps, s)
			passed = s.passes(limit, maxBacklog)
		}
		if !passed {
			break
		}
		best = rate
	}
	return best, steps
}

// histDelta returns what a histogram series gained between two snapshots
// (bucket counts, count and integer-nanosecond sum), with every series of
// that name (all label sets, e.g. one per shard) merged first with
// telemetry.Merge. Min and Max of an interval are unknown and stay 0.
func histDelta(before, after *telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	a, b := mergedHist(after, name), mergedHist(before, name)
	d := telemetry.HistogramSnapshot{
		Name: name, Count: a.Count - b.Count, SumNanos: a.SumNanos - b.SumNanos,
		Counts: make([]uint64, len(a.Counts)),
	}
	for i := range d.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// mergedHist merges every histogram series called name.
func mergedHist(s *telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	acc := telemetry.HistogramSnapshot{Counts: make([]uint64, telemetry.HistBuckets)}
	for _, h := range s.Histograms {
		if h.Name == name {
			if m, err := telemetry.Merge(acc, h); err == nil {
				acc = m
			}
		}
	}
	return acc
}

// histQuantile estimates the q-quantile in seconds of bucket counts in the
// registry's fixed geometry, interpolating geometrically inside the bucket
// that holds the rank. HistogramSnapshot.Quantile reports that bucket's
// midpoint instead, so its estimate moves in 2^(1/4) steps and reads the
// same across runs whose medians differ by up to a bucket; interpolation
// keeps the per-layer medians continuous. Returns 0 for an empty
// histogram.
func histQuantile(counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	bounds := telemetry.BucketBounds()
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		hi := bounds[i]
		lo := hi / math.Pow(2, 0.25)
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - cum) / float64(c)
		return lo * math.Pow(hi/lo, frac)
	}
	return bounds[len(bounds)-1]
}

// counterDelta sums every counter series called name (all label sets) and
// returns its growth between two snapshots.
func counterDelta(before, after *telemetry.Snapshot, name string) float64 {
	sum := func(s *telemetry.Snapshot) float64 {
		var v uint64
		for _, c := range s.Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		return float64(v)
	}
	return sum(after) - sum(before)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
