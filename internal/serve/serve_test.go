package serve

import (
	"sync"
	"testing"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// testConfig returns a test-sized model: mean pooling (YouTube-class), dim
// 128 = one stripe on an 8-DIMM node.
func testConfig(tables, reduction, dim int, mean bool, op isa.ReduceOp) recsys.Config {
	return recsys.Config{
		Name: "serve-test", Tables: tables, Reduction: reduction, FCLayers: 2,
		EmbDim: dim, TableRows: 300, Hidden: []int{16, 8},
		Op: op, Mean: mean,
	}
}

func newDeployment(t *testing.T, cfg recsys.Config, maxBatch, slots, lanes int) *runtime.Deployment {
	t.Helper()
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{DIMMs: 8, PerDIMMBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := runtime.DeployConcurrent(m, nd, maxBatch, slots, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for zero deployments")
	}
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	d := newDeployment(t, cfg, 8, 1, 1)
	if _, err := New(Config{MaxBatch: 16}, d); err == nil {
		t.Fatal("want error for MaxBatch beyond deployment capacity")
	}
	other := testConfig(3, 5, 128, true, isa.RAdd) // different table count
	d2 := newDeployment(t, other, 8, 1, 1)
	if _, err := New(Config{}, d, d2); err == nil {
		t.Fatal("want error for mismatched deployment geometries")
	}
	s, err := New(Config{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.MaxBatch != 8 || s.cfg.Workers != 1 {
		t.Fatalf("defaults: %+v", s.cfg)
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	s, err := New(Config{}, newDeployment(t, cfg, 8, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	good := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	if _, err := s.Infer(good, 0); err == nil {
		t.Fatal("want batch range error")
	}
	if _, err := s.Infer(good, 9); err == nil {
		t.Fatal("want batch > MaxBatch error")
	}
	if _, err := s.Infer(good[:1], 1); err == nil {
		t.Fatal("want table count error")
	}
	if _, err := s.Infer([][]int{{1}, {2}}, 1); err == nil {
		t.Fatal("want row count error")
	}
	bad := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	bad[1][0] = cfg.TableRows // out of range
	if _, err := s.Infer(bad, 1); err == nil {
		t.Fatal("want row range error")
	}
	// A valid request still succeeds after the rejected ones.
	if _, err := s.Infer(good, 1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientsMatchGolden is the core serving guarantee: many
// concurrent clients, merged arbitrarily by the workers, each get results
// bitwise-identical to the golden (unbatched, pure-software) model. Run
// with -race.
func TestConcurrentClientsMatchGolden(t *testing.T) {
	cfg := testConfig(3, 4, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, 16, 2, 2*cfg.Tables)
	s, err := New(Config{MaxBatch: 16}, dep)
	if err != nil {
		t.Fatal(err)
	}
	const clients, iters = 8, 6
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Zipfian, int64(c)*13+1)
			for i := 0; i < iters; i++ {
				batch := 1 + (c+i)%3
				rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
				got, err := s.Embed(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := dep.GoldenEmbedding(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = errMismatch(c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Requests != clients*iters {
		t.Fatalf("completed %d requests, want %d", m.Requests, clients*iters)
	}
	if m.TotalLatency.Count != clients*iters || m.TotalLatency.P99 <= 0 {
		t.Fatalf("latency accounting: %+v", m.TotalLatency)
	}
}

type errMismatch2 struct{ c, i int }

func (e errMismatch2) Error() string {
	return "client result differs from golden model"
}

func errMismatch(c, i int) error { return errMismatch2{c, i} }

// TestInferMatchesUnbatchedModel checks the full pipeline (embedding + DNN)
// against the pure-software model under concurrency.
func TestInferMatchesUnbatchedModel(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RMul) // NCF-class pairwise path
	dep := newDeployment(t, cfg, 8, 2, 4)
	s, err := New(Config{}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(c)+7)
			for i := 0; i < 4; i++ {
				rows := gen.Batch(cfg.Tables, 2, cfg.Reduction)
				got, err := s.Infer(rows, 2)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := dep.Model.Infer(rows, 2)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = errMismatch(c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// embedAsync submits one Embed from a new goroutine and delivers its
// result on the returned channel.
func embedAsync(s *Server, rows [][]int, batch int) <-chan *tensor.Tensor {
	out := make(chan *tensor.Tensor, 1)
	go func() {
		got, _ := s.Embed(rows, batch) // nil on error
		out <- got
	}()
	return out
}

// stallWorker holds the table lock exclusively and submits one 1-sample
// read, returning once the single worker has taken it and is blocked inside
// that batch's gather. The caller releases the worker with s.tblMu.Unlock.
func stallWorker(t *testing.T, s *Server, rows [][]int) <-chan *tensor.Tensor {
	t.Helper()
	s.tblMu.Lock()
	out := embedAsync(s, rows, 1)
	// The worker records the queue wait just before it takes the shared
	// table lock, so a count of one means it is parked on the lock.
	waitFor(t, "the worker to start its first batch", func() bool { return s.queueLat.Count() == 1 })
	return out
}

// checkGolden asserts one Embed reply is bit-identical to the golden model.
func checkGolden(t *testing.T, dep *runtime.Deployment, got <-chan *tensor.Tensor, rows [][]int, batch int) {
	t.Helper()
	var res *tensor.Tensor
	select {
	case res = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a reply")
	}
	want, err := dep.GoldenEmbedding(rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !tensor.Equal(res, want) {
		t.Fatal("result differs from golden model (or failed)")
	}
}

// TestBatchingCoalesces pins the work-conserving rule deterministically:
// with the single worker stalled inside a 1-sample batch, N requests queue
// up; once released, the worker takes all N as one merged batch.
func TestBatchingCoalesces(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, 32, 1, cfg.Tables)
	s, err := New(Config{MaxBatch: 32, Workers: 1}, dep)
	if err != nil {
		t.Fatal(err)
	}
	const n = 31
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)
	rowSets := make([][][]int, n+1)
	for i := range rowSets {
		rowSets[i] = gen.Batch(cfg.Tables, 1, cfg.Reduction)
	}
	outs := []<-chan *tensor.Tensor{stallWorker(t, s, rowSets[0])}
	for i := 1; i <= n; i++ {
		outs = append(outs, embedAsync(s, rowSets[i], 1))
	}
	waitFor(t, "the requests to queue", func() bool { return len(s.queue) == n })
	s.tblMu.Unlock()
	for i, out := range outs {
		checkGolden(t, dep, out, rowSets[i], 1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Requests != n+1 || m.Samples != n+1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Batches != 2 || m.MeanBatch != float64(n+1)/2 {
		t.Fatalf("%d executions with mean batch %.2f, want 2 with mean %.1f", m.Batches, m.MeanBatch, float64(n+1)/2)
	}
}

// TestCloseDrainsCarriedRequest pins that a request a worker carries over
// to its next batch (it did not fit the current one) is still executed when
// Close races it, and that Close returns only after it has been answered.
func TestCloseDrainsCarriedRequest(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, 4, 1, cfg.Tables)
	s, err := New(Config{MaxBatch: 4, Workers: 1}, dep)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 4)
	first := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	three := gen.Batch(cfg.Tables, 3, cfg.Reduction)
	two := gen.Batch(cfg.Tables, 2, cfg.Reduction)

	outFirst := stallWorker(t, s, first)
	outThree := embedAsync(s, three, 3)
	waitFor(t, "the 3-sample read to queue", func() bool { return len(s.queue) == 1 })
	// 3 + 2 samples exceed MaxBatch 4: the 2-sample read is carried.
	outTwo := embedAsync(s, two, 2)
	waitFor(t, "the 2-sample read to queue", func() bool { return len(s.queue) == 2 })

	closed := make(chan Metrics, 1)
	go func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		closed <- s.Metrics()
	}()
	waitFor(t, "Close to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	s.tblMu.Unlock()

	checkGolden(t, dep, outFirst, first, 1)
	checkGolden(t, dep, outThree, three, 3)
	checkGolden(t, dep, outTwo, two, 2)
	// Counters are bumped before each reply is sent, so the snapshot taken
	// the moment Close returned must already hold all three batches.
	if m := <-closed; m.Requests != 3 || m.Batches != 3 || m.Samples != 6 {
		t.Fatalf("at Close return: %d requests, %d batches, %d samples; want 3, 3, 6", m.Requests, m.Batches, m.Samples)
	}
}

// TestMultipleDeployments serves from two replicas and checks both get
// traffic and results stay golden.
func TestMultipleDeployments(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	d1 := newDeployment(t, cfg, 8, 1, cfg.Tables)
	d2 := newDeployment(t, cfg, 8, 1, cfg.Tables)
	s, err := New(Config{}, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 9)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows := gen2(gen, cfg)
			got, err := s.Embed(rows, 1)
			if err != nil {
				errs[i] = err
				return
			}
			want, _ := d1.GoldenEmbedding(rows, 1)
			if !tensor.Equal(got, want) {
				errs[i] = errMismatch(i, 0)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// gen2 draws one single-sample request under the generator's mutex-free
// sequential API (the generator itself is not safe for concurrent use, so
// tests draw up front or serialize).
var genMu sync.Mutex

func gen2(g *workload.Generator, cfg recsys.Config) [][]int {
	genMu.Lock()
	defer genMu.Unlock()
	return g.Batch(cfg.Tables, 1, cfg.Reduction)
}

func TestCloseSemantics(t *testing.T) {
	cfg := testConfig(1, 1, 128, false, isa.RAdd)
	dep := newDeployment(t, cfg, 4, 1, 1)
	s, err := New(Config{}, dep)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 2)
	rows := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	if _, err := s.Infer(rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Infer(rows, 1); err == nil {
		t.Fatal("want error after close")
	}
	// Close released the deployment's pool memory.
	if dep.Node.AllocCount() != 0 {
		t.Fatalf("%d live allocations after close", dep.Node.AllocCount())
	}
}

func TestNewRejectsNegativeConfig(t *testing.T) {
	cfg := testConfig(1, 1, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 4, 1, 1)
	for _, bad := range []Config{
		{Workers: -1},
		{QueueDepth: -1},
		{MaxBatch: -1},
	} {
		if _, err := New(bad, d); err == nil {
			t.Fatalf("config %+v: want error, got server", bad)
		}
	}
}
