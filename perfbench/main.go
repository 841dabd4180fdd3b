// Command perfbench is the repository's serving benchmark. It brings the
// serving stack up in-process, sends seeded open-loop embed traffic over
// loopback TCP through netclient, checks responses bit-for-bit against its
// own reference model, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports per-layer metrics instead, prints a
// per-layer latency table and the tracing overhead, and writes its spans
// to a CSV file under -out. Workload parameters, latency limits and rate
// ladders are in workloads.json. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload miss --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name from workloads.json")
	seed := flag.Int64("seed", 1, "seed of the model and the traffic")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files and WALs")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
