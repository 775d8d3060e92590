// Command perfbench is the repository's benchmark: three workloads that
// drive the MSC compiler, the compile service and the SIMD engine
// through the root package's public API, check every output against an
// independent reference, and print one JSON result line.
//
//	perfbench --workload compile-large --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 every op also runs through a traced path that calls each
// layer's public functions directly, with a span around every call, and
// the result carries the per-layer metrics, a residual (end-to-end time
// no layer accounts for) and the tracing overhead. README.md in this
// directory documents the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// defaultSeed is the pinned workload seed; the benchmark's own tests
// use heldOutSeed so that a tuned change is also checked on inputs it
// was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// The benchmark and the program under test run on one P (GOMAXPROCS
// 1), and the worker pools under test are given poolWorkers goroutines,
// which share it. With a second P, Go spends CPU time on idle-P garbage
// collection and on spinning threads, and how much depends on how busy
// the host is; on one P the CPU time of an op is the work it does. The
// pools still stripe and merge as they do on two cores, but their
// parallel speedup is not measured.
const poolWorkers = 2

type options struct {
	root     string // repository root: inputs are read from here
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where the traced run writes its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"compile-large": runCompileLarge,
	"service-mixed": runServiceMixed,
	"simd-wide":     runSIMDWide,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "repository root holding examples/ and testdata/")
	flag.StringVar(&o.workload, "workload", "", "compile-large, service-mixed or simd-wide")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "traced runs write their spans here (default .bench_build/spans-<workload>.jsonl under -root)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", "spans-"+o.workload+".jsonl")
	}
	res, err := run(o)
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

func run(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want compile-large, service-mixed or simd-wide)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(1)
	res, err := fn(o)
	if err != nil {
		return nil, err
	}
	return res, checkMetrics(res.Metrics, o.trace)
}

// checkMetrics refuses a result that does not carry exactly the metrics
// of its kind, each finite, end-to-end ones above zero: a run too short
// to sample some op must fail rather than report a made-up figure.
func checkMetrics(m map[string]metric, trace bool) error {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	if len(m) != len(defs) {
		return fmt.Errorf("result has %d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		switch {
		case !ok || v.Unit != d.unit:
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		case !trace && v.Value <= 0:
			return fmt.Errorf("metric %s is %v; the run sampled too few ops", d.name, v.Value)
		}
	}
	return nil
}

// readInput reads a program from the repository.
func readInput(o options, rel string) (string, error) {
	b, err := os.ReadFile(filepath.Join(o.root, filepath.FromSlash(rel)))
	if err != nil {
		return "", fmt.Errorf("read input: %w", err)
	}
	return string(b), nil
}

// workDir returns a fresh scratch directory under the checkout's build
// directory; the caller removes it.
func workDir(o options, pattern string) (string, error) {
	base := filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o777); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
