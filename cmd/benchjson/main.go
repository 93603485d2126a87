// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable perf-trajectory file (BENCH_estimate.json,
// BENCH_train.json, BENCH_serve.json). It keeps the standard per-op columns
// (ns/op, B/op, allocs/op) plus any custom b.ReportMetric columns, and
// derives the headline numbers directly: worker-scaling ratios (workers=max
// throughput over the workers=1 baseline) for the EstimateBatch and
// TrainJoint benchmarks, and the p50/p95/p99 request-latency quantiles for
// the ServeLatency benchmark.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... > bench.out
//	go run ./cmd/benchjson -o BENCH_estimate.json < bench.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"iam/internal/atomicfile"
)

type benchResult struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric columns, e.g. "queries/s".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type benchFile struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// GitSHA is the commit the benchmarked tree was at — HEAD at the moment
	// benchjson ran, which is the parent of the commit that later lands this
	// file (a run can't know the hash of a commit that doesn't exist yet).
	// Omitted when the working directory is not a git checkout, so the tool
	// still works on exported trees.
	GitSHA string `json:"git_sha,omitempty"`
	// GitDirty reports whether the benchmarked tree had uncommitted changes
	// on top of GitSHA — true means the numbers may not reproduce from the
	// commit alone. Omitted (false) on clean trees and non-git checkouts.
	GitDirty bool `json:"git_dirty,omitempty"`
	// NumCPU is the host's logical CPU count — the denominator behind every
	// workers=max entry, without which the scaling ratios of two trajectory
	// files cannot be compared.
	NumCPU int `json:"num_cpu"`
	// EstimateBatchSpeedup is ns/op(workers=1) divided by ns/op(workers=max)
	// for BenchmarkEstimateBatch — the serving worker-scaling headline.
	// Omitted when either entry is missing from the run; explicitly null
	// (with Note set) on a single-CPU host, where workers=max degenerates to
	// one worker and the ratio would read as a spurious ~3% regression
	// instead of what it is: unmeasurable.
	EstimateBatchSpeedup json.RawMessage `json:"estimate_batch_speedup,omitempty"`
	// TrainJointSpeedup is the same ratio for BenchmarkTrainJoint — the
	// data-parallel training headline. Same null-on-single-CPU convention.
	TrainJointSpeedup json.RawMessage `json:"train_joint_speedup,omitempty"`
	// Note flags measurement caveats, currently only "procs=1" (the host
	// cannot measure worker scaling).
	Note string `json:"note,omitempty"`
	// ServeLatencyP50Us/P95/P99 are the end-to-end request latency quantiles
	// (µs) reported by BenchmarkServeLatency — the serving-layer headline.
	// Omitted when the run has no serving benchmark entries.
	ServeLatencyP50Us float64       `json:"serve_latency_p50_us,omitempty"`
	ServeLatencyP95Us float64       `json:"serve_latency_p95_us,omitempty"`
	ServeLatencyP99Us float64       `json:"serve_latency_p99_us,omitempty"`
	Results           []benchResult `json:"results"`
}

func main() {
	out := flag.String("o", "BENCH_estimate.json", "output JSON file")
	flag.Parse()
	if err := run(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(r io.Reader, out string) error {
	bf := benchFile{
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		GitSHA:   gitSHA(),
		GitDirty: gitDirty(),
		NumCPU:   runtime.NumCPU(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			bf.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseBenchLine(line)
			if err != nil {
				return fmt.Errorf("parsing %q: %w", line, err)
			}
			if res == nil {
				continue // a benchmark name echoed with -v, no columns
			}
			res.Pkg = pkg
			bf.Results = append(bf.Results, *res)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading bench output: %w", err)
	}
	if len(bf.Results) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin (did `go test -bench` fail?)")
	}
	ebs := speedup(bf.Results, "BenchmarkEstimateBatch")
	tjs := speedup(bf.Results, "BenchmarkTrainJoint")
	single := bf.NumCPU == 1
	bf.EstimateBatchSpeedup = speedupJSON(ebs, single)
	bf.TrainJointSpeedup = speedupJSON(tjs, single)
	if single && (ebs > 0 || tjs > 0) {
		bf.Note = "procs=1"
	}
	bf.ServeLatencyP50Us = serveMetric(bf.Results, "p50-us")
	bf.ServeLatencyP95Us = serveMetric(bf.Results, "p95-us")
	bf.ServeLatencyP99Us = serveMetric(bf.Results, "p99-us")

	data, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", out, err)
	}
	data = append(data, '\n')
	if err := atomicfile.WriteFile(out, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return fmt.Errorf("writing %s: %w", out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s (EstimateBatch speedup %s, TrainJoint speedup %s, serve p50/p95/p99 %.0f/%.0f/%.0f µs)\n",
		len(bf.Results), out, speedupLabel(ebs, single), speedupLabel(tjs, single),
		bf.ServeLatencyP50Us, bf.ServeLatencyP95Us, bf.ServeLatencyP99Us)
	return nil
}

// speedupJSON renders a worker-scaling ratio for the trajectory file: the
// number itself on a multi-CPU host, nothing when the run lacked both
// sub-entries, and an explicit null on a single-CPU host — where the ratio
// measures scheduler overhead, not scaling.
func speedupJSON(ratio float64, single bool) json.RawMessage {
	if ratio <= 0 {
		return nil
	}
	if single {
		return json.RawMessage("null")
	}
	data, err := json.Marshal(ratio)
	if err != nil {
		return nil
	}
	return data
}

// speedupLabel is the stderr-summary form of the same convention.
func speedupLabel(ratio float64, single bool) string {
	if ratio <= 0 {
		return "n/a"
	}
	if single {
		return "null (procs=1)"
	}
	return fmt.Sprintf("%.2fx", ratio)
}

// parseBenchLine decodes one result line, e.g.
//
//	BenchmarkEstimateBatch/workers=1-8  10  1234 ns/op  0 B/op  0 allocs/op  518.3 queries/s
//
// Returns (nil, nil) for lines that carry a benchmark name but no columns
// (the `-v` echo of a sub-benchmark about to run).
func parseBenchLine(line string) (*benchResult, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return nil, nil
	}
	res := &benchResult{Name: f[0], Procs: 1}
	if i := strings.LastIndex(f[0], "-"); i > 0 {
		if p, err := strconv.Atoi(f[0][i+1:]); err == nil {
			res.Name, res.Procs = f[0][:i], p
		}
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return nil, fmt.Errorf("iteration count %q: %w", f[1], err)
	}
	res.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", f[i], err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}

// gitSHA returns the checkout's HEAD commit, or "" when git is unavailable
// or the working directory is not a repository.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// gitDirty reports uncommitted changes (tracked files only — the trajectory
// files this tool writes are themselves untracked-then-committed, and
// untracked files can't have changed the benchmarked code). False when git
// is unavailable.
func gitDirty() bool {
	out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return false
	}
	return len(strings.TrimSpace(string(out))) > 0
}

// serveMetric lifts one quantile column out of BenchmarkServeLatency's
// custom metrics, or 0 if the run did not include the serving benchmark.
func serveMetric(results []benchResult, unit string) float64 {
	for _, r := range results {
		if r.Name == "BenchmarkServeLatency" {
			return r.Metrics[unit]
		}
	}
	return 0
}

// speedup derives the worker-scaling ratio from a benchmark's workers=1 and
// workers=max sub-entries, or 0 if the run did not include both.
func speedup(results []benchResult, bench string) float64 {
	var base, par float64
	for _, r := range results {
		switch r.Name {
		case bench + "/workers=1":
			base = r.NsPerOp
		case bench + "/workers=max":
			par = r.NsPerOp
		}
	}
	if base <= 0 || par <= 0 {
		return 0
	}
	return base / par
}
