package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// maxBatch is the sample cap of one request, the stacks' default.
const maxBatch = 64

// stack is one running serving stack, fronted by a netserve.Server on a
// loopback listener and reached through one pooled netclient.
type stack struct {
	client  *netclient.Client
	reg     *telemetry.Registry
	backend *tracedBackend
	dimms   int // TensorDIMMs across every node of the stack
	closers []func()
}

// close tears the stack down in reverse build order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// modelConfig is the recommender every stack serves.
func modelConfig(g geometry) recsys.Config {
	return recsys.Config{
		Name: "perfbench", Tables: g.Tables, Reduction: g.Reduction, FCLayers: 1,
		EmbDim: g.Dim, TableRows: g.Rows, Hidden: []int{16},
	}
}

// buildStack builds, listens and dials the stack a workload runs on. The
// replicated stack keeps its WALs in a fresh directory under dir.
func buildStack(w mix, g geometry, seed int64, dir string, tr *tracer) (s *stack, err error) {
	s = &stack{reg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	telemetry.RegisterGoRuntime(s.reg)
	m, err := recsys.Build(modelConfig(g), seed)
	if err != nil {
		return nil, err
	}
	var b netserve.Backend
	if w.Stack == "cluster" {
		b, err = s.buildCluster(m, g)
	} else {
		b, err = s.buildReplicated(m, g, dir)
	}
	if err != nil {
		return nil, err
	}
	s.backend = &tracedBackend{Backend: b, tr: tr}
	front, err := netserve.New(s.backend, netserve.Config{Registry: s.reg})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		front.Close()
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		front.Serve(l)
	}()
	s.closers = append(s.closers, func() {
		front.Close()
		<-served
	})
	s.client, err = netclient.Dial(l.Addr().String(), netclient.Config{Conns: conns})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { s.client.Close() })
	return s, nil
}

// buildCluster is the in-process sharded router with hot-row caches.
func (s *stack) buildCluster(m *recsys.Model, g geometry) (netserve.Backend, error) {
	cl, err := cluster.New(m, cluster.Config{
		Nodes: g.Shards, DIMMsPerNode: g.DIMMs, CacheBytes: int64(g.CacheKB) << 10,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { cl.Close() })
	cl.Instrument(s.reg)
	s.dimms = g.Shards * g.DIMMs
	// Warm every shard's cache with the lowest row numbers of its tables,
	// which are the hottest under the workloads' Zipf draws.
	place := cluster.NewPlacement(cluster.TableWise, g.Shards, g.Tables, g.Rows)
	perShard := (g.CacheKB << 10) / (g.Dim * 4)
	warm := make([][]int, g.Shards)
	for r := 0; r < g.Rows; r++ {
		for t := 0; t < g.Tables; t++ {
			if sh, flat := place.Locate(t, r); len(warm[sh]) < perShard {
				warm[sh] = append(warm[sh], flat)
			}
		}
	}
	for sh, rows := range warm {
		if _, err := cl.WarmCache(sh, rows); err != nil {
			return nil, err
		}
	}
	return netserve.ClusterBackend(cl), nil
}

// buildReplicated is the replica router over g.Shards x g.Replicas
// in-process replica servers, with durable per-shard WALs.
func (s *stack) buildReplicated(m *recsys.Model, g geometry, dir string) (netserve.Backend, error) {
	place := cluster.NewPlacement(cluster.TableWise, g.Shards, g.Tables, g.Rows)
	addrs := make([][]string, g.Shards)
	for sh := 0; sh < g.Shards; sh++ {
		for r := 0; r < g.Replicas; r++ {
			addr, err := s.startReplica(m, g, place, sh, r)
			if err != nil {
				return nil, err
			}
			addrs[sh] = append(addrs[sh], addr)
		}
	}
	wal, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { os.RemoveAll(wal) })
	rc, err := remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, Shards: addrs,
		MaxBatch: maxBatch, DataDir: wal, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { rc.Close() })
	if err := rc.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	rc.Instrument(s.reg)
	s.dimms = g.Shards * g.Replicas * g.DIMMs
	return rc, nil
}

// startReplica serves one replica of shard sh behind its own listener and
// returns its address. Its serve.Server joins the stack's registry.
func (s *stack) startReplica(m *recsys.Model, g geometry, place *cluster.Placement, sh, r int) (string, error) {
	shardModel, err := cluster.ExtractShardModel(m, cluster.TableWise, g.Shards, sh)
	if err != nil {
		return "", err
	}
	maxSub := place.MaxSub(sh, maxBatch, g.Reduction)
	// Room for the shard's rows plus gather scratch, with headroom.
	perDIMM := uint64(place.LocalRows(sh)*g.Dim*4)*3/2/uint64(g.DIMMs) + 1<<20
	nd, err := node.New(node.Config{DIMMs: g.DIMMs, PerDIMMBytes: perDIMM})
	if err != nil {
		return "", err
	}
	s.closers = append(s.closers, func() { nd.Close() })
	dep, err := runtime.DeployConcurrent(shardModel, nd, maxSub, 2, 2)
	if err != nil {
		return "", err
	}
	srv, err := serve.New(serve.Config{MaxBatch: maxSub, Workers: 2}, dep)
	if err != nil {
		dep.Release()
		return "", err
	}
	s.closers = append(s.closers, func() { srv.Close() })
	srv.Instrument(s.reg, telemetry.L("shard", strconv.Itoa(sh)), telemetry.L("replica", strconv.Itoa(r)))
	ns, err := netserve.New(netserve.ServerBackend(srv), netserve.Config{Role: wire.RoleReplica})
	if err != nil {
		return "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ns.Close()
		return "", fmt.Errorf("replica %d/%d: %w", sh, r, err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		ns.Serve(l)
	}()
	s.closers = append(s.closers, func() {
		ns.Close()
		<-served
	})
	return l.Addr().String(), nil
}
