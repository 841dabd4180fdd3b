package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// workloadsJSON holds the geometry and the per-workload traffic
// parameters, latency limits and rate ladders. It is compiled in,
// so a run never depends on the working directory.
//
//go:embed workloads.json
var workloadsJSON []byte

// geometry is the model and fleet shape every workload shares.
type geometry struct {
	Tables    int `json:"tables"`
	Dim       int `json:"dim"`
	Reduction int `json:"reduction"`
	Samples   int `json:"samples"` // samples per embed request
	Rows      int `json:"rows"`    // rows per table
	Shards    int `json:"shards"`
	Replicas  int `json:"replicas"` // replica servers per shard, replicated stack only
	DIMMs     int `json:"dimms_per_node"`
	CacheKB   int `json:"cache_kb"` // per-shard hot-row cache, cluster stack only
}

// lookups is the number of row lookups one embed request carries.
func (g geometry) lookups() int { return g.Tables * g.Samples * g.Reduction }

// mix is one workload: a traffic mix.
type mix struct {
	Stack   string    `json:"stack"` // "cluster" or "replicated"
	Dist    string    `json:"dist"`  // "uniform" or "zipf"
	ZipfS   float64   `json:"zipf_s"`
	Span    int       `json:"span"`   // indices are drawn from [0, span) of every table
	Writer  string    `json:"writer"` // "concurrent" with the reads, or "after" them
	LowRPS  float64   `json:"low_rps"`
	HighRPS float64   `json:"high_rps"`
	LimitMS float64   `json:"limit_ms"` // embed p99 limit of a ladder step
	Ladder  []float64 `json:"ladder"`   // offered rates, ascending
	// MaxHitRate and MinHitRate, when set, state the hit rate the
	// workload exists to show; a run where it does not hold is not correct.
	MaxHitRate float64 `json:"max_hit_rate"`
	MinHitRate float64 `json:"min_hit_rate"`
}

// benchConfig is the whole of workloads.json.
type benchConfig struct {
	Geometry  geometry       `json:"geometry"`
	Workloads map[string]mix `json:"workloads"`
}

// loadConfig parses and validates the compiled-in workloads.json.
func loadConfig() (*benchConfig, error) {
	var c benchConfig
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range c.Workloads {
		if w.Stack != "cluster" && w.Stack != "replicated" {
			return nil, fmt.Errorf("workload %s: unknown stack %q", name, w.Stack)
		}
		if w.Dist != "uniform" && w.Dist != "zipf" {
			return nil, fmt.Errorf("workload %s: unknown dist %q", name, w.Dist)
		}
		if w.Writer != "concurrent" && w.Writer != "after" {
			return nil, fmt.Errorf("workload %s: unknown writer mode %q", name, w.Writer)
		}
		if w.Span <= 0 || w.Span > c.Geometry.Rows || len(w.Ladder) == 0 || !sort.Float64sAreSorted(w.Ladder) {
			return nil, fmt.Errorf("workload %s: bad span or ladder", name)
		}
	}
	return &c, nil
}

// names lists the workload names in sorted order.
func (c *benchConfig) names() []string {
	var out []string
	for n := range c.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
