package main

import (
	"fmt"
	goruntime "runtime"
	"strings"

	"tensordimm/internal/telemetry"
)

// Registry series the per-layer metrics read.
var (
	windowHists = []string{
		"tensordimm_net_request_seconds",
		"tensordimm_cluster_request_seconds",
		"tensordimm_remote_request_seconds",
		"tensordimm_serve_queue_seconds",
		"tensordimm_serve_total_seconds",
	}
	windowCounters = []string{
		"tensordimm_net_requests_total",
		"tensordimm_net_updates_total",
		"tensordimm_net_shed_total",
		"tensordimm_net_batches_in_total",
		"tensordimm_net_batched_in_total",
		"tensordimm_net_batches_out_total",
		"tensordimm_net_batched_out_total",
		"tensordimm_cluster_cache_hits_total",
		"tensordimm_cluster_cache_misses_total",
		"tensordimm_cluster_cache_invalidations_total",
		"tensordimm_serve_requests_total",
		"tensordimm_serve_samples_total",
		"tensordimm_serve_batches_total",
		"tensordimm_serve_update_rows_total",
		"tensordimm_remote_requests_total",
		"tensordimm_remote_hedges_total",
		"tensordimm_remote_failovers_total",
		"tensordimm_remote_breaker_trips_total",
		"tensordimm_persist_appends_total",
		"tensordimm_persist_snapshots_total",
	}
)

// window accumulates what the registry and the process counters gained
// over one or more measurement intervals.
type window struct {
	hist    map[string]telemetry.HistogramSnapshot
	ctr     map[string]float64
	cpu     float64 // process CPU seconds
	gcCPU   float64
	usedCPU float64
	allocs  float64
	wall    float64 // seconds
	heap    uint64  // heap bytes at the end of the last interval
	walB    float64 // WAL bytes per retained log entry at the end
}

func newWindow() *window {
	return &window{hist: map[string]telemetry.HistogramSnapshot{}, ctr: map[string]float64{}}
}

// mark is the state at one edge of an interval.
type mark struct {
	snap *telemetry.Snapshot
	proc procSample
}

func markNow(reg *telemetry.Registry) mark {
	return mark{snap: reg.Snapshot(), proc: sampleProc()}
}

// add accumulates the interval from a to b.
func (w *window) add(a, b mark) {
	for _, name := range windowHists {
		d := histDelta(a.snap, b.snap, name)
		if acc, ok := w.hist[name]; ok {
			// Both come from histDelta in the registry's one geometry, so
			// Merge cannot fail.
			d, _ = telemetry.Merge(acc, d)
		}
		w.hist[name] = d
	}
	for _, name := range windowCounters {
		w.ctr[name] += counterDelta(a.snap, b.snap, name)
	}
	w.cpu += (b.proc.cpu - a.proc.cpu).Seconds()
	w.gcCPU += b.proc.gcCPU - a.proc.gcCPU
	w.usedCPU += b.proc.usedCPU - a.proc.usedCPU
	w.allocs += float64(b.proc.allocs - a.proc.allocs)
	w.wall += b.proc.wall.Sub(a.proc.wall).Seconds()
	w.heap = b.proc.heap
	walBytes, _ := b.snap.Gauge("tensordimm_remote_wal_bytes")
	if entries, _ := b.snap.Gauge("tensordimm_remote_log_entries"); entries > 0 {
		w.walB = walBytes / entries
	}
}

// layerInputs is what the traced run hands the per-layer report besides
// the registry windows.
type layerInputs struct {
	win           *window   // the traced read phases
	upd           *window   // the writer's traced interval: win when it ran beside the reads
	late          latencies // generator lateness over the traced phases
	call          latencies // netclient embed call durations
	backendEmbed  latencies
	backendUpdate latencies
	dim, dimms    int
}

// perLayer computes every per-layer metric.
func perLayer(in layerInputs) map[string]metric {
	w := in.win
	q := func(l latencies, p float64) float64 {
		v, _, ok := l.quantile(p)
		if !ok {
			return 0
		}
		return v * 1e3
	}
	hq := func(name string, p float64) float64 { return histQuantile(w.hist[name].Counts, p) * 1e3 }
	// Read-path rates are over the read phases, write-path ones over the
	// writer's interval.
	u := in.upd
	reads := w.ctr["tensordimm_net_requests_total"]
	updates := u.ctr["tensordimm_net_updates_total"]
	router := "tensordimm_cluster_request_seconds"
	if w.hist[router].Count == 0 {
		router = "tensordimm_remote_request_seconds"
	}
	gathered := w.ctr["tensordimm_serve_samples_total"]
	hits, misses := w.ctr["tensordimm_cluster_cache_hits_total"], w.ctr["tensordimm_cluster_cache_misses_total"]
	callP50 := q(in.call, 0.5)
	m := map[string]metric{
		"gen.late_p99_ms":                 {q(in.late, 0.99), "ms"},
		"netclient.call_p50_ms":           {callP50, "ms"},
		"netclient.call_p99_ms":           {q(in.call, 0.99), "ms"},
		"netserve.exec_p50_ms":            {hq("tensordimm_net_request_seconds", 0.5), "ms"},
		"netserve.exec_p99_ms":            {hq("tensordimm_net_request_seconds", 0.99), "ms"},
		"netserve.self_p50_ms":            {callP50 - q(in.backendEmbed, 0.5), "ms"},
		"netserve.in_coalesce":            {ratio(w.ctr["tensordimm_net_batched_in_total"], w.ctr["tensordimm_net_batches_in_total"]), "req/frame"},
		"netserve.out_coalesce":           {ratio(w.ctr["tensordimm_net_batched_out_total"], w.ctr["tensordimm_net_batches_out_total"]), "req/frame"},
		"netserve.shed":                   {w.ctr["tensordimm_net_shed_total"], "count"},
		"router.embed_p50_ms":             {hq(router, 0.5), "ms"},
		"router.embed_p99_ms":             {hq(router, 0.99), "ms"},
		"router.update_p50_ms":            {q(in.backendUpdate, 0.5), "ms"},
		"router.hit_rate":                 {ratio(hits, hits+misses), "ratio"},
		"router.rows_gathered_per_req":    {ratio(gathered, reads), "rows"},
		"router.subreqs_per_req":          {ratio(w.ctr["tensordimm_serve_requests_total"], reads), "count"},
		"router.invalidations_per_update": {ratio(u.ctr["tensordimm_cluster_cache_invalidations_total"], updates), "count"},
		"serve.queue_p50_ms":              {hq("tensordimm_serve_queue_seconds", 0.5), "ms"},
		"serve.queue_p99_ms":              {hq("tensordimm_serve_queue_seconds", 0.99), "ms"},
		"serve.total_p50_ms":              {hq("tensordimm_serve_total_seconds", 0.5), "ms"},
		"serve.mean_batch":                {ratio(w.ctr["tensordimm_serve_requests_total"], w.ctr["tensordimm_serve_batches_total"]), "req/batch"},
		"nmp.rows_gathered_per_s":         {ratio(gathered, w.wall), "rows/s"},
		"nmp.gather_gbs_per_rank":         {ratio(gathered*float64(in.dim)*4, float64(in.dimms)*w.wall) / 1e9, "GB/s"},
		"nmp.rows_scattered_per_s":        {ratio(u.ctr["tensordimm_serve_update_rows_total"], u.wall), "rows/s"},
		"remote.hedges_per_req":           {ratio(w.ctr["tensordimm_remote_hedges_total"], w.ctr["tensordimm_remote_requests_total"]), "ratio"},
		"remote.failovers":                {w.ctr["tensordimm_remote_failovers_total"], "count"},
		"remote.breaker_trips":            {w.ctr["tensordimm_remote_breaker_trips_total"], "count"},
		"persist.appends_per_s":           {ratio(u.ctr["tensordimm_persist_appends_total"], u.wall), "1/s"},
		"persist.snapshots":               {u.ctr["tensordimm_persist_snapshots_total"], "count"},
		"persist.wal_bytes_per_update":    {u.walB * ratio(u.ctr["tensordimm_persist_appends_total"], updates), "B"},
		"proc.cpu_util":                   {ratio(w.cpu, w.wall*float64(goruntime.NumCPU())), "ratio"},
		"proc.gc_cpu_frac":                {ratio(w.gcCPU, w.usedCPU), "ratio"},
		"proc.allocs_per_req":             {ratio(w.allocs, reads+w.ctr["tensordimm_net_updates_total"]), "count"},
		"proc.heap_mb":                    {float64(w.heap) / (1 << 20), "MB"},
	}
	return m
}

// breakdown renders the Fig. 13-style table: where a served read's time
// goes, layer by layer, as medians and means in milliseconds.
func breakdown(in layerInputs, routerName string) string {
	w := in.win
	p50 := func(l latencies) float64 { v, _, _ := l.quantile(0.5); return v * 1e3 }
	mean := func(l latencies) float64 {
		var s float64
		for _, v := range l.ok {
			s += v
		}
		return ratio(s, float64(len(l.ok))) * 1e3
	}
	qh := func(name string) float64 { return histQuantile(w.hist[name].Counts, 0.5) * 1e3 }
	mh := func(name string) float64 { h := w.hist[name]; return h.Mean() * 1e3 }
	row := func(label string, late, call, backend, queue, total float64) string {
		return fmt.Sprintf("  %-6s %10.4f %10.4f %12.4f %12.4f %12.4f\n",
			label, late, call-backend, backend-total, queue, total-queue)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer time of a served read (ms; %s self = backend call minus shard serve time; serve times are per shard sub-request):\n", routerName)
	fmt.Fprintf(&b, "  %-6s %10s %10s %12s %12s %12s\n", "", "gen late", "net self", routerName+" self", "serve queue", "serve exec")
	b.WriteString(row("p50", p50(in.late), p50(in.call), p50(in.backendEmbed),
		qh("tensordimm_serve_queue_seconds"), qh("tensordimm_serve_total_seconds")))
	b.WriteString(row("mean", mean(in.late), mean(in.call), mean(in.backendEmbed),
		mh("tensordimm_serve_queue_seconds"), mh("tensordimm_serve_total_seconds")))
	b.WriteString("  client and backend spans join in aggregate: no request id crosses the wire yet\n")
	return b.String()
}
