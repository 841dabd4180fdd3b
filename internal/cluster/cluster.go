// Package cluster scales the single-node serving stack out to many
// TensorNodes: a Cluster shards one recommender model across N nodes,
// routes every inference batch to the shards owning its rows, gathers the
// partial results over a modeled NVSwitch-class fabric and merges them
// bit-identically to the single-node golden embedding.
//
// The design follows the paper's own scaling argument (Section 4.3: a
// TensorNode is an endpoint of the GPU-side interconnect, so pooled
// capacity and aggregate NMP bandwidth grow with the number of nodes) and
// RecNMP's observation that production embedding traffic is heavily
// skewed, which the per-shard hot-row caches exploit.
//
// Structure of one request:
//
//   - route: every lookup (table, row) maps through the placement — whole
//     tables round-robin for TableWise, rows hashed across shards for
//     RowWise — and probes the owning shard's LRU hot-row cache. Hits are
//     served immediately; misses are deduplicated into one flat index list
//     per shard (a shard stores all its rows as a single gather-only
//     table, so a sub-request is one index list regardless of how many
//     tables it touches).
//   - execute: each non-empty sub-request runs through the shard's own
//     serve.Server (micro-batching across concurrent cluster requests) on
//     the shard's runtime.Deployment, gathering rows near-memory.
//   - transfer: the index lists out and the partial gathered rows back are
//     charged to the fabric with interconnect.Switch.ConvergeSeconds —
//     concurrent shard responses converge on the router's port, so their
//     payloads serialize at its bandwidth.
//   - merge: gathered rows and cache hits are reassembled in request
//     order and pooled with the golden embed.Pool / embed.Average code, so
//     the merged output is bit-identical to Deployment.GoldenEmbedding for
//     both strategies.
//
// Pooling happens at the router rather than near-memory: a row-wise
// pooling group spans shards, and a cache hit must bypass the gather path
// entirely, so shards return raw gathered rows. The near-memory cores
// still perform the gathers — the bandwidth-dominant stage — while the
// cache absorbs the transfer inflation on skewed traffic.
//
// Online updates (ApplyUpdates) reuse the same routing: an update's rows
// split by placement into per-shard sub-updates that SCATTER_ADD
// near-memory through each shard's server, the golden model absorbs the
// same gradients write-through, and the scattered rows are invalidated
// from the shard caches. Per-table locks serialize same-table updates
// (float accumulation order is part of the bit-identity contract), and a
// cache version handshake (rowCache.snapshot / putAt / invalidate) keeps a
// concurrent reader from parking a pre-update row in a cache after the
// update's invalidation pass.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/interconnect"
	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/stats"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
)

// Hop indices of the cluster tracer: routing (cache probes + dedup),
// shard gather fan-out (dispatch to last sub-request completion), and the
// golden merge.
const (
	hopRoute = iota
	hopGather
	hopMerge
)

// Config sizes a cluster. The zero value of every optional field selects a
// documented default at New; Nodes is required.
type Config struct {
	// Nodes is the number of TensorNode shards. Required, must be positive.
	Nodes int
	// Strategy selects table-wise (default) or row-wise sharding.
	Strategy Strategy
	// DIMMsPerNode is the TensorDIMM count of each node. Defaults to 8.
	// The model's embedding dimension must be a multiple of
	// DIMMsPerNode x 16 so rows stripe cleanly.
	DIMMsPerNode int
	// PerDIMMBytes overrides each node's per-DIMM capacity. Zero auto-sizes
	// the pool to fit the shard's table slice plus execution scratch.
	PerDIMMBytes uint64
	// MaxBatch caps the samples of one cluster request. Defaults to 64.
	MaxBatch int
	// Workers is each shard server's concurrent executor count (and its
	// deployment's slots and lanes). Defaults to 2.
	Workers int
	// CacheBytes is the per-shard hot-row cache capacity in bytes. Zero
	// (or anything smaller than one row) disables caching.
	CacheBytes int64
	// Fabric is the switch connecting the shards to the router. A zero
	// value defaults to interconnect.NVSwitch(Nodes + 1): one port per
	// shard plus the router's.
	Fabric interconnect.Switch
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.DIMMsPerNode == 0 {
		c.DIMMsPerNode = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Fabric.Ports == 0 {
		c.Fabric = interconnect.NVSwitch(c.Nodes + 1)
	}
	return c
}

// shard is one TensorNode of the cluster plus its serving stack.
type shard struct {
	id    int
	node  *node.Node
	srv   *serve.Server
	cache *rowCache // nil when caching is disabled

	subRequests  stats.Counter
	rowsGathered stats.Counter
	partialBytes stats.Counter // gathered rows shipped shard -> router
	indexBytes   stats.Counter // index lists shipped router -> shard
	subUpdates   stats.Counter // sub-updates routed here
	rowsUpdated  stats.Counter // gradient rows scattered near-memory
	updateBytes  stats.Counter // indices + gradients shipped router -> shard
}

// Cluster is a sharded multi-node serving system for one recommender
// model. Create with New, submit with Infer or Embed from any number of
// goroutines, inspect with Metrics, and Close when done.
//
// Memory discipline. Every request borrows a routerScratch from a pool —
// flat per-shard sub-request slices with an epoch-stamped dedup table (no
// per-request maps), a hit buffer the caches copy into, and per-shard
// result buffers the shard servers gather into — and sub-requests are
// dispatched through a fixed pool of router workers, so the steady-state
// Embed path performs no heap allocations (see ARCHITECTURE.md, "Memory
// discipline").
type Cluster struct {
	model *recsys.Model
	cfg   Config
	place *Placement
	shard []*shard

	scratchPool sync.Pool
	dispatch    chan *shardCall

	// runMu guards the closed flag against the in-flight counter so Close
	// can wait for every running request before tearing the shards down.
	runMu    sync.Mutex
	inflight sync.WaitGroup

	// tableMu serializes updates per global table: float accumulation is
	// not associative, so per-table ordering — across the shard scatters,
	// the golden write-through and the cache invalidations together — is
	// what keeps Embed bit-identical to the sequential reference. Updates
	// to distinct tables proceed concurrently.
	tableMu []sync.Mutex

	closed      atomic.Bool
	started     time.Time
	requests    stats.Counter
	samples     stats.Counter
	failures    stats.Counter
	lookups     stats.Counter
	updates     stats.Counter // ApplyUpdates calls completed successfully
	updateRows  stats.Counter // gradient rows routed across completed updates
	transfer    stats.Latency // modeled fabric seconds per request
	updTransfer stats.Latency // modeled fabric seconds per update batch
	totalLat    stats.Latency // wall-clock seconds per request

	// Telemetry plane, nil until Instrument; every hot-path use is
	// nil-guarded (see Instrument).
	tTotal  *telemetry.Histogram
	tFabric *telemetry.Histogram
	tracer  *telemetry.Tracer
}

// New shards the model across cfg.Nodes TensorNodes: it materializes each
// shard's flat local table from the model's golden tables, builds and
// uploads a gather-only deployment per shard, and starts a serve.Server
// in front of each. The model itself is not modified and keeps serving as
// the golden reference for merges.
func New(m *recsys.Model, cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Strategy != TableWise && cfg.Strategy != RowWise {
		return nil, fmt.Errorf("cluster: unknown strategy %v", cfg.Strategy)
	}
	cfg = cfg.withDefaults()
	mc := m.Cfg
	stripeElems := cfg.DIMMsPerNode * 16
	if mc.EmbDim%stripeElems != 0 {
		return nil, fmt.Errorf("cluster: embedding dim %d must be a multiple of DIMMsPerNode x 16 = %d",
			mc.EmbDim, stripeElems)
	}
	if cfg.MaxBatch < 0 || cfg.Workers < 0 || cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("cluster: negative sizing (MaxBatch %d, Workers %d, CacheBytes %d)",
			cfg.MaxBatch, cfg.Workers, cfg.CacheBytes)
	}

	c := &Cluster{
		model:   m,
		cfg:     cfg,
		place:   NewPlacement(cfg.Strategy, cfg.Nodes, mc.Tables, mc.TableRows),
		tableMu: make([]sync.Mutex, mc.Tables),
	}
	c.scratchPool.New = func() any { return c.newScratch() }
	// Router workers: enough for every shard of several concurrent
	// requests to be in flight at once. A call beyond that waits for a free
	// router worker while the shards work through the calls they already hold.
	workers := cfg.Nodes * cfg.Workers * 2
	c.dispatch = make(chan *shardCall, workers)
	for i := 0; i < workers; i++ {
		go c.dispatchWorker()
	}
	for s := 0; s < cfg.Nodes; s++ {
		sh, err := c.buildShard(s)
		if err != nil {
			c.Close() // release the shards already built
			return nil, err
		}
		c.shard = append(c.shard, sh)
	}
	// Uptime starts when the cluster is ready to serve, not when table
	// upload began, so Metrics-derived throughput reflects serving time.
	c.started = time.Now()
	return c, nil
}

// buildShard materializes shard s: flat table, node, deployment, server.
// An empty shard (no rows placed on it) gets no serving stack.
func (c *Cluster) buildShard(s int) (*shard, error) {
	mc := c.model.Cfg
	sh := &shard{id: s}
	localRows := c.place.localRows[s]
	if localRows == 0 {
		return sh, nil
	}

	// Gather-only shard model: one flat table holding every row this shard
	// owns at the flat coordinate Placement.Locate assigns it, reduction 1
	// (pooling happens at the router's merge). Shared with the remote
	// serving path (ExtractShardModel), so an in-process shard and a
	// -shard-id TensorNode process serve identical bytes.
	shardModel, err := buildShardModel(c.model, c.place, s)
	if err != nil {
		return nil, err
	}

	// Worst case rows of one sub-request: every lookup of a maximal cluster
	// request lands on this shard.
	maxSub := c.place.MaxSub(s, c.cfg.MaxBatch, mc.Reduction)

	nd, err := node.New(node.Config{
		DIMMs:        c.cfg.DIMMsPerNode,
		PerDIMMBytes: c.perDIMMBytes(localRows, maxSub),
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d node: %w", s, err)
	}
	dep, err := runtime.DeployConcurrent(shardModel, nd, maxSub, c.cfg.Workers, c.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d deploy: %w", s, err)
	}
	sh.srv, err = serve.New(serve.Config{
		MaxBatch: maxSub,
		Workers:  c.cfg.Workers,
	}, dep)
	if err != nil {
		dep.Release()
		return nil, fmt.Errorf("cluster: shard %d server: %w", s, err)
	}
	sh.node = nd
	sh.cache = newRowCache(c.cfg.CacheBytes, mc.EmbDim, localRows)
	return sh, nil
}

// perDIMMBytes sizes one shard node's per-DIMM capacity: the flat table,
// two gather buffers per lane, one output region per slot, padding slack
// on each, stripe-alignment margin per allocation, and 50% headroom.
func (c *Cluster) perDIMMBytes(localRows, maxSub int) uint64 {
	if c.cfg.PerDIMMBytes > 0 {
		return c.cfg.PerDIMMBytes
	}
	embBytes := uint64(c.model.Cfg.EmbBytes())
	stripe := uint64(c.cfg.DIMMsPerNode) * isa.BlockBytes
	slack := uint64(isa.LanesPerBlock) * stripe
	region := uint64(maxSub)*embBytes + slack // one gather buffer or output
	workers := uint64(c.cfg.Workers)
	allocs := 1 + 3*workers // table + 2 gather buffers and 1 output each
	need := uint64(localRows)*embBytes + 3*workers*region + allocs*stripe
	per := (need + need/2) / uint64(c.cfg.DIMMsPerNode)
	return (per + 4095) / 4096 * 4096
}

// rowSrc locates one lookup's resolved row: shard >= 0 indexes into that
// shard's sub-request result, shard == -1 indexes a row of the scratch's
// hit buffer (the lookup was served by a cache).
type rowSrc struct {
	shard int32
	idx   int32
}

// subScratch is one shard's slice of a routerScratch: the deduplicated
// flat index list being built, the buffer the shard server gathers into,
// and the epoch-stamped dedup table replacing the per-request map — a slot
// is live only when its stamp equals the scratch's current epoch, so reuse
// costs one increment instead of a map allocation.
type subScratch struct {
	rows    []int   // deduplicated flat rows routed to this shard
	rowsArg [][]int // reused 1-element header for the shard server call
	out     []float32
	stamp   []uint32 // dedup: stamp[flat] == epoch means slot[flat] is live
	slot    []int32  // dedup: flat row -> index in rows
}

// routerScratch is the per-request working set of the router, pooled on
// the cluster. A scratch is owned by exactly one request from Get to Put.
type routerScratch struct {
	wg       sync.WaitGroup
	epoch    uint32
	cacheVer []uint64
	fabric   []int64
	calls    []shardCall
	sub      []subScratch
	src      []rowSrc  // tables x lookups resolved sources
	hitBuf   []float32 // cache hits, one dim-wide row per hit
	hitRows  int
	// lookups is the current request's batch x reduction; vec is the
	// Merger callback over src/sub/hitBuf, built once per scratch so the
	// merge stays allocation-free.
	lookups int
	vec     func(t, i int) []float32
	span    telemetry.Span // per-hop trace slot, recycled with the scratch
}

// shardCall is one shard sub-request being executed by a router worker.
type shardCall struct {
	c   *Cluster
	s   int
	scr *routerScratch
	err error
}

// newScratch sizes a routerScratch for the cluster's geometry.
func (c *Cluster) newScratch() *routerScratch {
	mc := c.model.Cfg
	lookups := c.cfg.MaxBatch * mc.Reduction
	scr := &routerScratch{
		cacheVer: make([]uint64, c.cfg.Nodes),
		fabric:   make([]int64, c.cfg.Nodes),
		calls:    make([]shardCall, c.cfg.Nodes),
		sub:      make([]subScratch, c.cfg.Nodes),
		src:      make([]rowSrc, mc.Tables*lookups),
		hitBuf:   make([]float32, mc.Tables*lookups*mc.EmbDim),
	}
	for s := range scr.sub {
		maxSub := c.place.TablesOn(s) * lookups
		scr.sub[s] = subScratch{
			rows:    make([]int, 0, maxSub),
			rowsArg: make([][]int, 1),
			out:     make([]float32, 0, maxSub*mc.EmbDim),
			stamp:   make([]uint32, c.place.localRows[s]),
			slot:    make([]int32, c.place.localRows[s]),
		}
	}
	for s := range scr.calls {
		scr.calls[s] = shardCall{c: c, s: s, scr: scr}
	}
	dim := mc.EmbDim
	scr.vec = func(t, i int) []float32 {
		src := scr.src[t*scr.lookups+i]
		if src.shard < 0 {
			return scr.hitBuf[int(src.idx)*dim : (int(src.idx)+1)*dim]
		}
		out := scr.sub[src.shard].out
		return out[int(src.idx)*dim : (int(src.idx)+1)*dim]
	}
	return scr
}

// nextEpoch advances the scratch's dedup epoch, clearing the stamp tables
// only on the (rare) wrap-around.
func (scr *routerScratch) nextEpoch() uint32 {
	scr.epoch++
	if scr.epoch == 0 {
		for s := range scr.sub {
			clear(scr.sub[s].stamp)
		}
		scr.epoch = 1
	}
	return scr.epoch
}

// dispatchWorker executes shard sub-requests until Close drains the pool.
func (c *Cluster) dispatchWorker() {
	for call := range c.dispatch {
		call.run()
		call.scr.wg.Done()
	}
}

// run executes one shard's sub-request: the shard server gathers the
// deduplicated rows into the scratch's per-shard buffer, and the transfer
// is accounted per shard for the fabric model.
func (call *shardCall) run() {
	c, s, scr := call.c, call.s, call.scr
	sh := c.shard[s]
	sub := &scr.sub[s]
	n := len(sub.rows)
	sub.rowsArg[0] = sub.rows
	out, err := sh.srv.EmbedInto(sub.out[:0], sub.rowsArg, n)
	if err != nil {
		call.err = err
		return // a failed sub-request gathered and transferred nothing
	}
	sub.out, call.err = out, nil
	idxBytes := int64(n) * 4
	rowBytes := int64(n) * c.model.Cfg.EmbBytes()
	sh.subRequests.Inc()
	sh.rowsGathered.Add(uint64(n))
	sh.indexBytes.Add(uint64(idxBytes))
	sh.partialBytes.Add(uint64(rowBytes))
	scr.fabric[s] = idxBytes + rowBytes
}

// Embed runs the sharded embedding stage for one request of `batch`
// samples and returns the pooled [batch, tables*dim] tensor, bit-identical
// to Deployment.GoldenEmbedding regardless of strategy, cache state or
// co-running requests. perTableRows holds batch x reduction row indices
// per table, exactly as Deployment.Infer takes them. Safe for concurrent
// use.
func (c *Cluster) Embed(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	mc := c.model.Cfg
	if err := c.validateRead(perTableRows, batch); err != nil {
		return nil, err
	}
	dst := make([]float32, batch*mc.Tables*mc.EmbDim)
	if _, err := c.run(dst, perTableRows, batch, true); err != nil {
		return nil, err
	}
	return tensor.FromSlice(dst, batch, mc.Tables*mc.EmbDim)
}

// EmbedInto is Embed writing the pooled [batch, tables*dim] values
// row-major into dst, which is grown if its capacity is insufficient and
// returned re-sliced to exactly batch*tables*dim. A caller that reuses the
// returned slice performs zero heap allocations in steady state; the
// cluster writes to dst only for the duration of the call and never
// retains it. Safe for concurrent use (with distinct dst buffers).
func (c *Cluster) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	mc := c.model.Cfg
	if err := c.validateRead(perTableRows, batch); err != nil {
		return nil, err
	}
	need := batch * mc.Tables * mc.EmbDim
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	if _, err := c.run(dst, perTableRows, batch, true); err != nil {
		return nil, err
	}
	return dst, nil
}

// Infer runs Embed plus the model's DNN stage at the router (the GPU that
// received the merged tensor), returning [batch, 1] probabilities. Safe
// for concurrent use.
func (c *Cluster) Infer(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	mc := c.model.Cfg
	if err := c.validateRead(perTableRows, batch); err != nil {
		return nil, err
	}
	dst := make([]float32, batch*mc.Tables*mc.EmbDim)
	return c.run(dst, perTableRows, batch, false)
}

// ApplyUpdates applies a batch of per-table gradient updates cluster-wide:
// every entry's rows are routed through the same TableWise/RowWise
// placement as gathers, scattered near-memory on the owning shards (via
// each shard's server, where updates order ahead of co-batched reads),
// written through to the golden model, and invalidated from the shards'
// hot-row caches. Index and gradient transfer bytes are charged to the
// fabric like read traffic.
//
// Ordering. Updates to the same global table are serialized (slice order
// within one call, lock order across calls); updates to distinct tables
// proceed concurrently. After ApplyUpdates returns, every subsequent Embed
// observes the update and remains bit-identical to the sequential golden
// model. An Embed concurrent with the call may observe pre-update rows,
// post-update rows, or (for rows spanning multiple stripes) a mix of
// pre- and post-update stripes — but never a stale cache entry that
// outlives the update (see rowCache's version handshake). Safe for
// concurrent use.
//
// Each entry may carry at most MaxBatch x reduction rows — one request's
// worth, mirroring the read path. The whole batch is validated before
// anything executes. A shard failure mid-batch returns an error and leaves
// that table inconsistent between shards and golden model (counted in
// Failures); callers should treat it as fatal for the deployment.
func (c *Cluster) ApplyUpdates(ups []runtime.TableUpdate) error {
	mc := c.model.Cfg
	if len(ups) == 0 {
		return fmt.Errorf("cluster: empty update batch")
	}
	for i, up := range ups {
		if up.Table < 0 || up.Table >= mc.Tables {
			return fmt.Errorf("cluster: update %d: table %d out of range [0, %d)", i, up.Table, mc.Tables)
		}
		if up.Grads == nil || up.Grads.Rank() != 2 || up.Grads.Dim(0) != len(up.Rows) || up.Grads.Dim(1) != mc.EmbDim {
			return fmt.Errorf("cluster: update %d: gradient shape for %d rows of dim %d", i, len(up.Rows), mc.EmbDim)
		}
		if len(up.Rows) > c.cfg.MaxBatch*mc.Reduction {
			return fmt.Errorf("cluster: update %d: %d rows exceed the %d-row update cap",
				i, len(up.Rows), c.cfg.MaxBatch*mc.Reduction)
		}
		for _, r := range up.Rows {
			if r < 0 || r >= mc.TableRows {
				return fmt.Errorf("cluster: update %d: row index %d out of range [0, %d)", i, r, mc.TableRows)
			}
		}
	}

	if err := c.enter(); err != nil {
		return err
	}
	defer c.inflight.Done()

	// Group by table (shared grouping with the runtime, so orderings can
	// never diverge) and fan the groups out: distinct tables update
	// concurrently.
	order, groups := runtime.GroupUpdatesByTable(ups)
	fabricBytes := make([]int64, c.cfg.Nodes)
	var fabricMu sync.Mutex
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for gi, t := range order {
		wg.Add(1)
		go func(gi, t int) {
			defer wg.Done()
			c.tableMu[t].Lock()
			defer c.tableMu[t].Unlock()
			for _, up := range groups[t] {
				bytes, err := c.applyTableUpdate(up)
				if err != nil {
					errs[gi] = err
					return
				}
				fabricMu.Lock()
				for s, b := range bytes {
					fabricBytes[s] += b
				}
				fabricMu.Unlock()
			}
		}(gi, t)
	}
	wg.Wait()
	c.updTransfer.Observe(c.cfg.Fabric.ConvergeSeconds(fabricBytes))
	for _, err := range errs {
		if err != nil {
			c.failures.Inc()
			return err
		}
	}
	rows := 0
	for _, up := range ups {
		rows += len(up.Rows)
	}
	c.updates.Inc()
	c.updateRows.Add(uint64(rows))
	return nil
}

// applyTableUpdate routes one table's update to its owning shards (callers
// hold the table's update lock): split the rows by placement, scatter each
// shard's slice through its server, write through to the golden model, and
// invalidate the scattered rows from the shard caches. Returns the modeled
// per-shard fabric bytes (indices + gradients, router -> shard).
func (c *Cluster) applyTableUpdate(up runtime.TableUpdate) ([]int64, error) {
	mc := c.model.Cfg
	// Split by owning shard, preserving row order per shard (duplicates
	// must accumulate in order).
	shardRows := make(map[int][]int) // shard -> flat local rows
	shardSrc := make(map[int][]int)  // shard -> gradient row indices
	for i, r := range up.Rows {
		s, flat := c.place.Locate(up.Table, r)
		shardRows[s] = append(shardRows[s], flat)
		shardSrc[s] = append(shardSrc[s], i)
	}

	bytes := make([]int64, c.cfg.Nodes)
	errs := make(map[int]error, len(shardRows))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, flatRows := range shardRows {
		wg.Add(1)
		go func(s int, flatRows []int) {
			defer wg.Done()
			sh := c.shard[s]
			grads := tensor.New(len(flatRows), mc.EmbDim)
			for j, i := range shardSrc[s] {
				copy(grads.Row(j), up.Grads.Row(i))
			}
			// The shard stores its rows as one flat gather-only table, so a
			// sub-update always targets table 0 of the shard model.
			err := sh.srv.Update([]runtime.TableUpdate{{Table: 0, Rows: flatRows, Grads: grads}})
			if err != nil {
				mu.Lock()
				errs[s] = err
				mu.Unlock()
				return
			}
			// Invalidate AFTER the scatter committed: the version bump inside
			// invalidate also voids every in-flight putAt snapshotted before
			// now, so no reader can park a pre-update row in the cache.
			if sh.cache != nil {
				sh.cache.invalidate(flatRows)
			}
			upBytes := int64(len(flatRows))*4 + int64(len(flatRows))*mc.EmbBytes()
			sh.subUpdates.Inc()
			sh.rowsUpdated.Add(uint64(len(flatRows)))
			sh.updateBytes.Add(uint64(upBytes))
			bytes[s] = upBytes
		}(s, flatRows)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d update: %w", s, err)
		}
	}
	// Write-through to the golden model, in the same per-table order the
	// shards applied (shared accumulation with the runtime).
	runtime.AccumulateGolden(c.model.Embedding.Tables[up.Table], up)
	return bytes, nil
}

// validateRead checks one read submission against the cluster geometry.
func (c *Cluster) validateRead(perTableRows [][]int, batch int) error {
	mc := c.model.Cfg
	if batch <= 0 || batch > c.cfg.MaxBatch {
		return fmt.Errorf("cluster: batch %d out of range [1, %d]", batch, c.cfg.MaxBatch)
	}
	if len(perTableRows) != mc.Tables {
		return fmt.Errorf("cluster: %d index lists for %d tables", len(perTableRows), mc.Tables)
	}
	lookups := batch * mc.Reduction
	for t, rows := range perTableRows {
		if len(rows) != lookups {
			return fmt.Errorf("cluster: table %d: %d rows for batch %d x reduction %d",
				t, len(rows), batch, mc.Reduction)
		}
		for _, r := range rows {
			if r < 0 || r >= mc.TableRows {
				return fmt.Errorf("cluster: table %d: row index %d out of range [0, %d)", t, r, mc.TableRows)
			}
		}
	}
	return nil
}

// enter registers one in-flight operation, failing when the cluster is
// closed; the matching c.inflight.Done() lets Close drain before teardown.
func (c *Cluster) enter() error {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: cluster is closed")
	}
	c.inflight.Add(1)
	return nil
}

// run executes one validated request against dst (length batch*tables*dim):
// route, execute, transfer, merge. For embedOnly it returns (nil, nil) with
// the pooled values in dst; otherwise it returns the DNN output.
func (c *Cluster) run(dst []float32, perTableRows [][]int, batch int, embedOnly bool) (*tensor.Tensor, error) {
	start := time.Now()
	mc := c.model.Cfg
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.inflight.Done()
	lookups := batch * mc.Reduction
	dim := mc.EmbDim
	c.lookups.Add(uint64(mc.Tables * lookups))

	scr := c.scratchPool.Get().(*routerScratch)
	defer c.scratchPool.Put(scr)
	epoch := scr.nextEpoch()
	scr.hitRows = 0
	scr.lookups = lookups
	if c.tracer != nil {
		scr.span.BeginAt(start)
	}

	// Snapshot every cache's version before any gather is dispatched: a
	// row gathered now may predate an update that lands mid-request, and
	// putAt drops it if the version moved (see rowCache).
	for s, sh := range c.shard {
		scr.fabric[s] = 0
		scr.sub[s].rows = scr.sub[s].rows[:0]
		if sh.cache != nil {
			scr.cacheVer[s] = sh.cache.snapshot()
		}
	}

	// Route: resolve every lookup to a cache hit (copied into the hit
	// buffer, so no reference into the cache outlives the probe) or a
	// deduplicated slot in the owning shard's sub-request.
	for t, rows := range perTableRows {
		srcRow := scr.src[t*lookups : (t+1)*lookups]
		for i, r := range rows {
			s, flat := c.place.Locate(t, r)
			sh := c.shard[s]
			if sh.cache != nil {
				hit := scr.hitBuf[scr.hitRows*dim : (scr.hitRows+1)*dim]
				if sh.cache.getInto(flat, hit) {
					srcRow[i] = rowSrc{shard: -1, idx: int32(scr.hitRows)}
					scr.hitRows++
					continue
				}
			}
			sub := &scr.sub[s]
			if sub.stamp[flat] == epoch {
				srcRow[i] = rowSrc{shard: int32(s), idx: sub.slot[flat]}
				continue
			}
			sub.stamp[flat] = epoch
			sub.slot[flat] = int32(len(sub.rows))
			srcRow[i] = rowSrc{shard: int32(s), idx: sub.slot[flat]}
			sub.rows = append(sub.rows, flat)
		}
	}
	if c.tracer != nil {
		scr.span.Mark(hopRoute)
	}

	// Execute the per-shard sub-requests concurrently through the router
	// workers and model the fabric cost: index lists out, partial gathered
	// rows back, both serializing at the router's port.
	for s := range scr.sub {
		if len(scr.sub[s].rows) == 0 {
			continue
		}
		scr.calls[s].err = nil
		scr.wg.Add(1)
		c.dispatch <- &scr.calls[s]
	}
	scr.wg.Wait()
	fabric := c.cfg.Fabric.ConvergeSeconds(scr.fabric)
	c.transfer.Observe(fabric)
	if c.tracer != nil {
		scr.span.Mark(hopGather)
		c.tFabric.Observe(fabric)
	}
	for s := range scr.sub {
		if len(scr.sub[s].rows) == 0 {
			continue
		}
		if err := scr.calls[s].err; err != nil {
			c.failures.Inc()
			return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
		}
	}

	// Feed the caches with the rows just gathered — unless an update bumped
	// the shard's version since the snapshot, in which case the gathered
	// rows may be stale and are not cached.
	for s := range scr.sub {
		sub := &scr.sub[s]
		if len(sub.rows) == 0 || c.shard[s].cache == nil {
			continue
		}
		for j, flat := range sub.rows {
			c.shard[s].cache.putAt(flat, sub.out[j*dim:(j+1)*dim], scr.cacheVer[s])
		}
	}

	// Merge: pool each table's rows in request order directly into dst
	// through the shared Merger — the exact golden embed.Pool /
	// embed.Average operation sequence, bit-identical to Layer.Forward.
	width := mc.Tables * dim
	merger := Merger{Tables: mc.Tables, Dim: dim, Reduction: mc.Reduction, Mean: mc.Mean, Op: mc.Op}
	if err := merger.Merge(dst, batch, scr.vec); err != nil {
		c.failures.Inc()
		return nil, err
	}
	if c.tracer != nil {
		scr.span.Mark(hopMerge)
	}

	if embedOnly {
		c.requests.Inc()
		c.samples.Add(uint64(batch))
		c.finishRequest(scr, start)
		return nil, nil
	}
	view, err := tensor.FromSlice(dst, batch, width)
	if err == nil {
		view, err = c.model.InferFromEmbeddings(view)
	}
	if err != nil {
		c.failures.Inc()
		return nil, err
	}
	c.requests.Inc()
	c.samples.Add(uint64(batch))
	c.finishRequest(scr, start)
	return view, nil
}

// finishRequest records a completed request's total latency into both the
// legacy reservoir and (when instrumented) the telemetry histogram, and
// finishes the scratch's trace span.
func (c *Cluster) finishRequest(scr *routerScratch, start time.Time) {
	total := time.Since(start).Seconds()
	c.totalLat.Observe(total)
	if c.tracer != nil {
		c.tTotal.Observe(total)
		c.tracer.Finish(&scr.span)
	}
}

// GoldenEmbedding computes the single-node reference embedding output the
// cluster's merge must match bit-for-bit.
func (c *Cluster) GoldenEmbedding(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	return c.model.Embedding.Forward(perTableRows, batch)
}

// Nodes returns the shard count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Geometry reports the sharded model's shape and limits: table count,
// pooling reduction, embedding dimension, table height, and the per-request
// batch cap. The network serving plane announces exactly these numbers in
// its wire handshake, so a remote client can validate and size every
// request without out-of-band configuration.
func (c *Cluster) Geometry() (tables, reduction, dim, tableRows, maxBatch int) {
	mc := c.model.Cfg
	return mc.Tables, mc.Reduction, mc.EmbDim, mc.TableRows, c.cfg.MaxBatch
}

// Config returns the cluster's effective configuration (defaults filled).
func (c *Cluster) Config() Config { return c.cfg }

// HotRows returns up to k flat local rows of one shard ranked by lifetime
// cache-probe count, hottest first — the Zipf head the shard's traffic
// actually exercised. A serving process persists this list at drain so a
// warm restart can WarmCache before admitting traffic. Returns nil when
// the shard has no cache (or no traffic yet).
func (c *Cluster) HotRows(shard, k int) []int {
	if shard < 0 || shard >= len(c.shard) || c.shard[shard] == nil || c.shard[shard].cache == nil || k <= 0 {
		return nil
	}
	return c.shard[shard].cache.hotRows(k)
}

// WarmCache pre-populates one shard's hot-row cache with the given flat
// local rows (hottest first, as HotRows returns them): the rows gather
// through the shard's normal serving path in sub-request-sized chunks and
// park in the cache, so the first post-restart requests hit instead of
// paying the near-memory gather. Out-of-range rows are skipped — the list
// may come from a stale persisted file whose placement changed. Returns
// how many rows were cached. No-op (0, nil) when the shard has no cache.
func (c *Cluster) WarmCache(shard int, flatRows []int) (int, error) {
	if shard < 0 || shard >= len(c.shard) {
		return 0, fmt.Errorf("cluster: shard %d out of range [0, %d)", shard, len(c.shard))
	}
	sh := c.shard[shard]
	if sh == nil || sh.srv == nil || sh.cache == nil || len(flatRows) == 0 {
		return 0, nil
	}
	if err := c.enter(); err != nil {
		return 0, err
	}
	defer c.inflight.Done()
	mc := c.model.Cfg
	localRows := c.place.LocalRows(shard)
	maxSub := c.place.MaxSub(shard, c.cfg.MaxBatch, mc.Reduction)
	rows := make([]int, 0, min(len(flatRows), localRows))
	for _, r := range flatRows {
		if r >= 0 && r < localRows {
			rows = append(rows, r)
		}
	}
	// Capacity-bound the warm set: inserting more rows than fit would just
	// evict the hotter prefix.
	if fit := int(c.cfg.CacheBytes / (int64(mc.EmbDim) * 4)); len(rows) > fit {
		rows = rows[:fit]
	}
	ver := sh.cache.snapshot()
	buf := make([]float32, maxSub*mc.EmbDim)
	warmed := 0
	for at := 0; at < len(rows); {
		n := min(maxSub, len(rows)-at)
		chunk := rows[at : at+n]
		out, err := sh.srv.EmbedInto(buf[:n*mc.EmbDim], [][]int{chunk}, n)
		if err != nil {
			return warmed, fmt.Errorf("cluster: shard %d warm: %w", shard, err)
		}
		for i, r := range chunk {
			sh.cache.putAt(r, out[i*mc.EmbDim:(i+1)*mc.EmbDim], ver)
			warmed++
		}
		at += n
	}
	return warmed, nil
}

// Close stops accepting requests, waits for every in-flight request and
// update to drain, shuts down every shard server (draining whatever they
// already accepted), releases the shard deployments, stops the router
// workers, and stops the shard nodes' executor workers. It is idempotent.
func (c *Cluster) Close() error {
	c.runMu.Lock()
	already := c.closed.Swap(true)
	c.runMu.Unlock()
	if already {
		return nil
	}
	c.inflight.Wait()
	var first error
	for _, sh := range c.shard {
		if sh == nil || sh.srv == nil {
			continue
		}
		if err := sh.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	close(c.dispatch)
	for _, sh := range c.shard {
		if sh != nil && sh.node != nil {
			sh.node.Close()
		}
	}
	return first
}
