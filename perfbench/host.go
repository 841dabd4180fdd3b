package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and source a result was taken on, so a
// result from another machine or revision is recognisably not comparable.
func fingerprint() string {
	return strings.Join([]string{
		"cpu=" + strconv.Quote(cpuModel()),
		"nproc=" + strconv.Itoa(goruntime.NumCPU()),
		"gomaxprocs=" + strconv.Itoa(goruntime.GOMAXPROCS(0)),
		"go=" + goruntime.Version(),
		"rev=" + revision(),
	}, " ")
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the git commit of the working directory when it is the
// root of a git checkout, otherwise a digest of its Go sources and JSON
// and module files.
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return "git:" + strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".":
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") || strings.HasSuffix(path, ".json")):
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// residentMB reads one memory field of /proc/self/status in MiB: "VmRSS"
// for the resident memory now, "VmHWM" for its peak.
func residentMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// procSample is the process counters a measurement window differences.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the process
	gcCPU   float64       // runtime estimate of GC CPU seconds
	usedCPU float64       // runtime estimate of CPU seconds not idle
	allocs  uint64        // heap objects allocated
	heap    uint64        // bytes in live and unswept heap objects
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// sampleProc reads the process counters.
func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   f(0),
		usedCPU: f(1) - f(2),
		allocs:  u(3),
		heap:    u(4),
	}
}
