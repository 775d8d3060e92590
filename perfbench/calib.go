package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// The host's speed drifts: other tenants slow this process's cores by
// a fifth or more for minutes at a time, and CPU time rises with it.
// The benchmark measures that speed in every run with a fixed piece of
// work of its own, calKernel, built from the standard library only (so
// no change to the program under test moves it), and scales every time
// metric to a host on which the kernel takes calNominalMs. The kernel
// hashes, allocates, compares strings and sorts, like the compiler
// does.

// calNominalMs is the kernel's CPU time on the nominal host, about its
// best on the machine the benchmark was written on.
const calNominalMs = 10.0

// calSink keeps the kernel's result alive.
var calSink int

// calKernel is the fixed work.
func calKernel() {
	const n = 24000
	m := make(map[string]int, 256)
	keys := make([]string, 0, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := strconv.FormatUint(x%40000, 36)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	calSink += len(m) + len(keys[n/2])
}

// calibrator collects the kernel's CPU times over a run.
type calibrator struct{ ms []float64 }

// sample times one run of the kernel, from a collected heap.
func (c *calibrator) sample() {
	runtime.GC()
	c.ms = append(c.ms, ms(cpuTime(calKernel)))
}

// scale returns how much faster the nominal host is than this run's
// host: the factor a CPU time is multiplied by (and a rate divided by).
// It uses the kernel's 10th-percentile time, the same kind of best of
// repeats the metrics use.
func (c *calibrator) scale() float64 {
	if len(c.ms) == 0 {
		c.sample()
	}
	return calNominalMs / quantile(c.ms, 0.1)
}

// scaleTimes scales the end-to-end time metrics in m to the nominal
// host: CPU times (in s or ms) by f, rates per CPU second by 1/f. It
// reports f on standard error.
func scaleTimes(m map[string]metric, f float64) {
	fmt.Fprintf(os.Stderr, "perfbench: host calibration scale %.3f\n", f)
	for name, v := range m {
		switch v.Unit {
		case "s", "ms":
			v.Value *= f
		case "1/s":
			v.Value /= f
		}
		m[name] = v
	}
}
