package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"tensordimm/internal/workload"
)

// endToEndUnits names every end-to-end metric with its unit.
// BENCHMARK.json lists the same names and units (a test keeps them in
// step).
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"embed_p50_ms.low":  "ms",
	"embed_p50_ms.high": "ms",
	"max_rate_rps":      "1/s",
	"update_p50_ms":     "ms",
	"update_rps":        "1/s",
	"served_frac":       "ratio",
	"mem_mb":            "MB",
}

// Harness sizing: the load generator, the reference checks and the stack
// set-up. These are the same for every workload.
const (
	conns         = 2    // netclient connections
	workers       = 64   // bound on reads in flight
	queue         = 4096 // arrivals that may wait for a worker
	checkEvery    = 8    // every n-th read is checked bit-for-bit
	setups        = 3    // stack set-ups per run; setup_s is their median
	snapshotEvery = 4096 // WAL entries per snapshot, replicated stack
)

// The closed-loop writer's updates: updateRows rows of every table, and a
// think pause between an ack and the next update.
const (
	updateRows = 8
	think      = time.Millisecond
)

// warmup is the untimed high-rate traffic before the measured phases.
const warmup = 1500 * time.Millisecond

// spanCap bounds the spans one traced run keeps in memory.
const spanCap = 1 << 19

// bench is one run's state.
type bench struct {
	name    string
	w       mix
	g       geometry
	seed    int64
	total   time.Duration
	st      *stack
	ref     *reference
	tr      *tracer
	loop    *openLoop
	wr      *writer
	traffic *traffic

	checked, mismatched atomic.Int64
	attempted, failed   int
}

// traffic measures the feed the generator actually issued.
type traffic struct {
	seen     [][]bool
	lookups  int
	distinct int
}

func newTraffic(g geometry) *traffic {
	t := &traffic{seen: make([][]bool, g.Tables)}
	for i := range t.seen {
		t.seen[i] = make([]bool, g.Rows)
	}
	return t
}

// note counts one request's lookups.
func (t *traffic) note(rows [][]int) {
	for tb, rs := range rows {
		for _, r := range rs {
			t.lookups++
			if !t.seen[tb][r] {
				t.seen[tb][r] = true
				t.distinct++
			}
		}
	}
}

// newGenerator draws indices from the workload's distribution.
func newGenerator(w mix, seed int64) (*workload.Generator, error) {
	if w.Dist == "zipf" {
		return workload.NewZipfGenerator(w.Span, w.ZipfS, seed)
	}
	return workload.NewGenerator(w.Span, workload.Uniform, seed)
}

// Seed offsets of the benchmark's independent random streams.
const (
	seedReads    = 101
	seedWarm     = 202
	seedWrite    = 303
	seedGrads    = 404
	seedSweep    = 505
	seedArrivals = 606
)

func run(name string, seed int64, total time.Duration, traced bool, out string) (*result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	w, ok := cfg.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(cfg.names(), ", "))
	}
	if total <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{name: name, w: w, g: cfg.Geometry, seed: seed, total: total}
	fmt.Printf("host: %s\n", fingerprint())
	fmt.Printf("workload %s: %s stack, %s indices over %d of %d rows per table, writer %s; seed %d, %v, traced %v\n",
		name, w.Stack, w.Dist, w.Span, b.g.Rows, w.Writer, seed, total, traced)

	if b.ref, err = newReference(modelConfig(b.g), seed); err != nil {
		return nil, err
	}
	b.tr = newTracer(0)
	if traced {
		b.tr = newTracer(spanCap)
	}
	setup, err := b.setUp(out)
	if err != nil {
		return nil, err
	}
	defer b.st.close()
	if err := b.startLoad(); err != nil {
		return nil, err
	}
	defer b.loop.close()
	defer b.wr.close()

	// Settle the heap after set-up and run the stack at the high rate
	// before anything is measured, so the first phase does not pay for
	// set-up garbage or cold paths.
	goruntime.GC()
	if _, err := b.loop.run(b.w.HighRPS, warmup, b.grace()); err != nil {
		return nil, err
	}
	b.traffic = newTraffic(b.g) // count only the measured feed
	res := &result{Metrics: map[string]metric{}}
	start := markNow(b.st.reg)
	if traced {
		err = b.tracedRun(res, out)
	} else {
		err = b.measuredRun(res, setup)
	}
	if err != nil {
		return nil, err
	}
	held := b.report(start, markNow(b.st.reg))
	if err := b.sweep(); err != nil {
		return nil, err
	}
	_, werr := b.wr.take()
	fmt.Printf("checks: %d pooled rows compared bit-for-bit, %d mismatches\n", b.checked.Load(), b.mismatched.Load())
	if werr != nil {
		fmt.Printf("writer failed: %v\n", werr)
	}
	res.Correct = held && b.mismatched.Load() == 0 && b.checked.Load() > 0 && werr == nil
	res.Attempted, res.Failed = b.attempted, b.failed
	return res, nil
}

// setUp builds the stack setups times, keeping the last, and returns
// the median set-up time: model build, deploy and table upload, listen,
// dial, cache warm-up and warm-up traffic.
func (b *bench) setUp(out string) (float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		if b.st != nil {
			b.st.close()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		st, err := buildStack(b.w, b.g, b.seed, out, b.tr)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		b.st = st
		if err := b.warmTraffic(); err != nil {
			b.st.close()
			return 0, fmt.Errorf("setup: warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Printf("setup: %d builds, median %.4f s\n", len(times), median(times))
	return median(times), nil
}

// warmTraffic sends sequential reads drawn like the workload's, checking
// each, so connections, pools and the replica router's hedge tracker are
// warm before anything is timed.
func (b *bench) warmTraffic() error {
	gen, err := newGenerator(b.w, b.seed+seedWarm)
	if err != nil {
		return err
	}
	rows := gen.Batch(b.g.Tables, b.g.Samples, b.g.Reduction)
	var dst []float32
	for i := 0; i < 256; i++ {
		if err := gen.FillBatch(rows, b.g.Samples, b.g.Reduction); err != nil {
			return err
		}
		if dst, err = b.st.client.EmbedInto(dst, rows, b.g.Samples); err != nil {
			return err
		}
		b.check(rows, dst, b.ref.acked.Load())
	}
	return nil
}

// check compares one response with the reference and counts the result.
func (b *bench) check(rows [][]int, got []float32, ackedAtSend int64) {
	n, bad, err := b.ref.check(rows, b.g.Samples, got, ackedAtSend)
	if err != nil {
		bad++
	}
	b.checked.Add(int64(n))
	b.mismatched.Add(int64(bad))
}

// startLoad starts the open-loop readers and creates the writer.
func (b *bench) startLoad() error {
	reads, err := newGenerator(b.w, b.seed+seedReads)
	if err != nil {
		return err
	}
	writes, err := newGenerator(b.w, b.seed+seedWrite)
	if err != nil {
		return err
	}
	if b.wr, err = newWriter(b.st.client, b.ref, b.tr, writes, b.seed+seedGrads, b.g, updateRows, think); err != nil {
		return err
	}
	b.traffic = newTraffic(b.g)
	dsts := make([][]float32, workers)
	acked := make([]int64, workers)
	fill := func(s *slot) {
		reads.FillBatch(s.rows, b.g.Samples, b.g.Reduction)
		b.traffic.note(s.rows)
	}
	call := func(wk int, s *slot) error {
		acked[wk] = b.ref.acked.Load()
		start := time.Now()
		dst, err := b.st.client.EmbedInto(dsts[wk], s.rows, b.g.Samples)
		b.tr.record(spanClientEmbed, 0, s.id, start, time.Now())
		if err != nil {
			return err
		}
		dsts[wk] = dst
		return nil
	}
	after := func(wk int, s *slot) {
		if s.id%checkEvery == 0 {
			b.check(s.rows, dsts[wk], acked[wk])
		}
	}
	b.loop, err = newOpenLoop(b.seed+seedArrivals, workers, queue, b.g.Tables, b.g.Samples*b.g.Reduction, fill, call, after)
	return err
}

// grace is how long arrivals may still wait for a worker after a
// schedule ends before they count as never issued.
func (b *bench) grace() time.Duration {
	return time.Duration(4 * b.w.LimitMS * float64(time.Millisecond))
}

// phase runs one fixed-rate phase, counts it towards attempted and
// failed, and prints its summary.
func (b *bench) phase(label string, rate float64, d time.Duration) (*phase, error) {
	ph, err := b.loop.run(rate, d, b.grace())
	if err != nil {
		return nil, err
	}
	l := ph.latencies()
	b.attempted += l.n()
	b.failed += l.failed
	printPhase(label, rate, ph)
	return ph, nil
}

func printPhase(label string, rate float64, ph *phase) {
	l := ph.latencies()
	p50, _, _ := l.quantile(0.5)
	p99, eff, _ := l.quantile(0.99)
	late := ph.lateness()
	lp99, _, _ := late.quantile(0.99)
	fmt.Printf("  %-10s %8.0f req/s offered, %7d sent in %.2f s: %d failed, %d never issued, backlog %d;"+
		" p50 %.4f ms, p%.2f %.4f ms, late p99 %.4f ms\n",
		label, rate, l.n(), ph.wall.Seconds(), ph.count(outFailed), ph.count(outNeverIssued), ph.backlog,
		p50*1e3, eff*100, p99*1e3, lp99*1e3)
}

// rounds is how many alternating low/high rounds the untraced run makes.
const rounds = 5

// runs is one rate's phases in the order they ran.
type runs []*phase

// ordered concatenates the phases' outcomes in arrival order.
func (rs runs) ordered() []float64 {
	var out []float64
	for _, ph := range rs {
		out = append(out, ph.ordered()...)
	}
	return out
}

// wall is the phases' total duration.
func (rs runs) wall() time.Duration {
	var d time.Duration
	for _, ph := range rs {
		d += ph.wall
	}
	return d
}

// tailMS is a tail of a phase in ms: the median, over windows of size
// arrivals, of each window's q-quantile. A tail that lands on a failed
// request reads as the phase's whole duration.
func tailMS(xs []float64, q float64, size int, wall time.Duration) float64 {
	v, _, _, ok := windowedQuantile(xs, q, size)
	if !ok || math.IsInf(v, 1) {
		return wall.Seconds() * 1e3
	}
	return v * 1e3
}

// p50MS is the median of a phase in ms: the median over windows of size
// arrivals of each window's median, so one stall moves one window.
func p50MS(xs []float64, size int) float64 {
	v, _, _, _ := windowedQuantile(xs, 0.5, size)
	return v * 1e3
}

// Shares of the run's time. Untraced: the low and high phases (in
// alternating rounds), then (for read-only workloads) a writer-only phase,
// then the rate ladder. Traced: four alternating untraced/traced high-rate
// chunks, then the writer-only phase.
const (
	shareLow    = 0.30
	shareHigh   = 0.25
	shareLadder = 0.37
	shareWriter = 0.08
	shareChunk  = 0.23
)

// A rate-ladder step runs at least minStep and at least stepArrivals
// arrivals: long enough that a growing backlog pushes the step's p99 past
// the limit, and that the p99 is a median over three windows, so a step
// fails on overload rather than on one stall.
const (
	minStep      = 1200 * time.Millisecond
	stepArrivals = 3 * p99Window
)

// stepDur is how long the ladder step at rate runs.
func stepDur(rate float64) time.Duration {
	return max(minStep, time.Duration(stepArrivals/rate*float64(time.Second)))
}

func (b *bench) dur(share float64) time.Duration {
	return time.Duration(share * float64(b.total))
}

// writeAlone runs the writer with no reads for the writer share of the
// run and returns how long it ran.
func (b *bench) writeAlone() time.Duration {
	t0 := time.Now()
	b.wr.start()
	time.Sleep(b.dur(shareWriter))
	b.wr.halt()
	return time.Since(t0)
}

// measuredRun is the untraced run: end-to-end metrics.
func (b *bench) measuredRun(res *result, setup float64) error {
	concurrent := b.w.Writer == "concurrent"
	if concurrent {
		b.wr.start()
	}
	fmt.Println("phases:")
	// The low and high phases alternate in rounds, so a slow stretch of the
	// host lands on both instead of deciding one. A concurrent writer's
	// latencies are kept from the high phases only: beside the light reads
	// its acks come back slower (an idler host wakes later), and mixing the
	// two populations would put the median in the gap between them.
	var low, high runs
	for r := 0; r < rounds; r++ {
		ph, err := b.phase("low", b.w.LowRPS, b.dur(shareLow)/rounds)
		if err != nil {
			return err
		}
		low = append(low, ph)
		b.wr.recording.Store(concurrent)
		ph, err = b.phase("high", b.w.HighRPS, b.dur(shareHigh)/rounds)
		b.wr.recording.Store(false)
		if err != nil {
			return err
		}
		high = append(high, ph)
	}
	writeWall := high.wall()
	if !concurrent {
		b.wr.recording.Store(true)
		writeWall = b.writeAlone()
		fmt.Printf("  writer     alone for %.2f s\n", writeWall.Seconds())
	}

	// The steps that fit the ladder's share of the run, at least one.
	n, budget := 1, b.dur(shareLadder)-stepDur(b.w.Ladder[0])
	for ; n < len(b.w.Ladder) && stepDur(b.w.Ladder[n]) <= budget; n++ {
		budget -= stepDur(b.w.Ladder[n])
	}
	ladder := b.w.Ladder[:n]
	limit := b.w.LimitMS / 1e3
	var stepErr error
	maxRate, steps := climb(ladder, limit, workers, func(rate float64) stepResult {
		ph, err := b.loop.run(rate, stepDur(rate), b.grace())
		if err != nil {
			stepErr = err
			return stepResult{rate: rate, p99: math.Inf(1)}
		}
		printPhase("ladder", rate, ph)
		p99, _, _, _ := windowedQuantile(ph.ordered(), 0.99, p99Window)
		return stepResult{rate: rate, p99: p99, failed: ph.latencies().failed, backlog: ph.backlog}
	})
	if stepErr != nil {
		return stepErr
	}
	fmt.Printf("  ladder: %d of %d steps fit the run; limit p99 <= %.1f ms, no failures, backlog <= %d: max rate %.0f req/s after %d steps\n",
		len(ladder), len(b.w.Ladder), b.w.LimitMS, workers, maxRate, len(steps))
	if concurrent {
		b.wr.halt()
	}
	// Memory is read after a forced collection has returned free heap to
	// the OS: what the stack retains. The peak is printed but not reported:
	// it is set by where the GC cycle stands when load peaks, and by how far
	// the ladder overloads the stack, and across identical runs it moved by
	// more than the bound.
	debug.FreeOSMemory()
	mem := residentMB("VmRSS")
	fmt.Printf("  memory: %.1f MB resident after GC, %.1f MB peak\n", mem, residentMB("VmHWM"))
	ups, _ := b.wr.take()
	b.attempted += ups.n()
	b.failed += ups.failed
	put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", setup)
	put("embed_p50_ms.low", p50MS(low.ordered(), p99Window))
	put("embed_p50_ms.high", p50MS(high.ordered(), p99Window))
	put("max_rate_rps", maxRate)
	put("update_p50_ms", p50MS(ups.ordered(), p90Window))
	put("update_rps", float64(len(ups.ok))/writeWall.Seconds())
	put("served_frac", 1-ratio(float64(b.failed), float64(b.attempted)))
	put("mem_mb", mem)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	// Tails are printed but kept out of the result: across identical runs
	// on a shared 2-vCPU host they moved more than any bound allows.
	fmt.Printf("tails (median over windows of 100 / 1000 arrivals of each window's p90 / p99; not in the result):\n"+
		"  embed low  p90 %.4f ms, p99 %.4f ms\n  embed high p90 %.4f ms, p99 %.4f ms\n  update     p90 %.4f ms, p99 %.4f ms\n",
		tailMS(low.ordered(), 0.9, p90Window, low.wall()), tailMS(low.ordered(), 0.99, p99Window, low.wall()),
		tailMS(high.ordered(), 0.9, p90Window, high.wall()), tailMS(high.ordered(), 0.99, p99Window, high.wall()),
		tailMS(ups.ordered(), 0.9, p90Window, writeWall), tailMS(ups.ordered(), 0.99, p99Window, writeWall))
	fmt.Println("end-to-end:")
	for _, n := range names {
		fmt.Printf("  %-18s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return nil
}

// tracedRun is the traced run: per-layer metrics, the per-layer table and
// the tracing overhead.
func (b *bench) tracedRun(res *result, out string) error {
	concurrent := b.w.Writer == "concurrent"
	if concurrent {
		b.wr.start()
	}
	win := newWindow() // the traced read chunks
	upd := win         // the writer's traced interval, when it runs beside them
	var plain, traced latencies
	var late latencies
	fmt.Println("phases:")
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		a := markNow(b.st.reg)
		b.tr.on.Store(on)
		label := "untraced"
		if on {
			label = "traced"
		}
		ph, err := b.phase(label, b.w.HighRPS, b.dur(shareChunk))
		b.tr.on.Store(false)
		if err != nil {
			return err
		}
		l := ph.latencies()
		if on {
			win.add(a, markNow(b.st.reg))
			traced.ok, traced.failed = append(traced.ok, l.ok...), traced.failed+l.failed
			lt := ph.lateness()
			late.ok = append(late.ok, lt.ok...)
		} else {
			plain.ok, plain.failed = append(plain.ok, l.ok...), plain.failed+l.failed
		}
	}
	if concurrent {
		b.wr.halt()
	} else {
		upd = newWindow()
		a := markNow(b.st.reg)
		b.tr.on.Store(true)
		b.writeAlone()
		b.tr.on.Store(false)
		upd.add(a, markNow(b.st.reg))
	}
	ups, _ := b.wr.take()
	b.attempted += ups.n()
	b.failed += ups.failed

	in := layerInputs{
		win: win, upd: upd, late: late,
		call:          b.tr.durations(spanClientEmbed),
		backendEmbed:  b.tr.durations(spanBackendEmbed),
		backendUpdate: b.tr.durations(spanBackendUpdate),
		dim:           b.g.Dim, dimms: b.st.dimms,
	}
	res.Metrics = perLayer(in)
	routerName := "cluster"
	if b.w.Stack == "replicated" {
		routerName = "remote"
	}
	fmt.Print(breakdown(in, routerName))
	p := func(l latencies, q float64) float64 { v, _, _ := l.quantile(q); return v * 1e3 }
	fmt.Printf("tracing overhead at %.0f req/s: p50 %+.4f ms (%.4f -> %.4f), p99 %+.4f ms (%.4f -> %.4f)\n",
		b.w.HighRPS, p(traced, 0.5)-p(plain, 0.5), p(plain, 0.5), p(traced, 0.5),
		p(traced, 0.99)-p(plain, 0.99), p(plain, 0.99), p(traced, 0.99))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("per-layer (traced phases; nmp GB/s is computed as rows x dim x 4 B per DIMM per wall second, not measured):")
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	path := filepath.Join(out, "spans-"+b.name+".csv")
	if err := b.tr.write(path); err != nil {
		return err
	}
	spans, dropped := b.tr.recorded()
	fmt.Printf("spans: %d written to %s (%d dropped past the %d-span buffer)\n", len(spans), path, dropped, spanCap)
	return nil
}

// report prints the traffic the run actually carried, so each workload's
// distinguishing property shows in measured numbers, and reports whether
// the workload's stated hit-rate property held.
func (b *bench) report(a, z mark) bool {
	hits := counterDelta(a.snap, z.snap, "tensordimm_cluster_cache_hits_total")
	misses := counterDelta(a.snap, z.snap, "tensordimm_cluster_cache_misses_total")
	reads := counterDelta(a.snap, z.snap, "tensordimm_net_requests_total")
	updates := counterDelta(a.snap, z.snap, "tensordimm_net_updates_total")
	hit := ratio(hits, hits+misses)
	fmt.Printf("traffic: %d lookups per read, distinct rows %.4f of %d lookups, hit rate %.4f, update share %.4f (%0.f reads, %0.f updates)\n",
		b.g.lookups(), ratio(float64(b.traffic.distinct), float64(b.traffic.lookups)), b.traffic.lookups,
		hit, ratio(updates, reads+updates), reads, updates)
	held := true
	if b.w.MaxHitRate > 0 {
		ok := hit < b.w.MaxHitRate
		fmt.Printf("property: hit rate %.4f < %.2f: %s\n", hit, b.w.MaxHitRate, okText(ok))
		held = held && ok
	}
	if b.w.MinHitRate > 0 {
		ok := hit >= b.w.MinHitRate
		fmt.Printf("property: hit rate %.4f >= %.2f: %s\n", hit, b.w.MinHitRate, okText(ok))
		held = held && ok
	}
	return held
}

func okText(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}

// sweepReads caps the reads of the final sweep.
const sweepReads = 512

// sweep reads back every row an update touched (up to sweepReads reads),
// padded with random rows, once all traffic has stopped, and checks each
// read against the reference.
func (b *bench) sweep() error {
	touched := b.ref.touched()
	per := b.g.Samples * b.g.Reduction
	n := 0
	for _, rows := range touched {
		n = max(n, (len(rows)+per-1)/per)
	}
	n = max(1, min(n, sweepReads))
	// Evenly spaced picks when more rows were touched than the reads cover.
	picks := make([][]int, len(touched))
	for t, rows := range touched {
		stride := max(1, (len(rows)+n*per-1)/(n*per))
		for k := 0; k < len(rows); k += stride {
			picks[t] = append(picks[t], rows[k])
		}
	}
	rng := rand.New(rand.NewSource(b.seed + seedSweep))
	rows := make([][]int, b.g.Tables)
	var dst []float32
	before := b.mismatched.Load()
	for i := 0; i < n; i++ {
		for t := range rows {
			lo := min(i*per, len(picks[t]))
			rows[t] = append(rows[t][:0], picks[t][lo:min(lo+per, len(picks[t]))]...)
			for len(rows[t]) < per {
				rows[t] = append(rows[t], rng.Intn(b.g.Rows))
			}
		}
		var err error
		b.attempted++
		if dst, err = b.st.client.EmbedInto(dst, rows, b.g.Samples); err != nil {
			b.failed++
			return fmt.Errorf("sweep read: %w", err)
		}
		b.check(rows, dst, b.ref.acked.Load())
	}
	fmt.Printf("sweep: %d reads over updated rows after the run, %d mismatches\n", n, b.mismatched.Load()-before)
	return nil
}
