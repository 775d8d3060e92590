package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"msc/internal/ir"
)

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// weighted is a value with a weight.
type weighted struct{ v, w float64 }

// weightedQuantile returns the smallest value whose cumulative weight
// reaches q of the total; 0 for none.
func weightedQuantile(xs []weighted, q float64) float64 {
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total, cum float64
	for _, x := range s {
		total += x.w
	}
	for _, x := range s {
		if cum += x.w; cum >= q*total {
			return x.v
		}
	}
	return 0
}

// geomean returns the geometric mean of positive xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// cpuNow is the CPU time the process has used so far: user and system
// time of all its threads. The end-to-end metrics time ops with it
// rather than with a wall clock. The benchmark runs on a few cores of
// a shared host, where a wall clock also counts the time the scheduler
// or the hypervisor gives to other tenants; CPU time counts only the
// work the program did (the kernel keeps time stolen by the hypervisor
// out of it). Parallel work counts once per thread.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime runs fn and returns the CPU time the process used meanwhile.
func cpuTime(fn func()) time.Duration {
	c0 := cpuNow()
	fn()
	return cpuNow() - c0
}

// opStats collects a sequential plain run's ops: the CPU time of every
// op by name, the heap they allocated, and the engine runs' CPU time
// and PE steps by name.
//
// The figures use each op's best (least) CPU time over the run's
// rounds. The host is shared, and other tenants' load slows this
// process in spells from under a second to minutes. CPU time does not
// filter that out, because the contention is in the cores' caches and
// pipelines rather than in the scheduler. Interference only ever adds
// time, so the best of a run's repeats is the steadiest estimate of
// what an op costs when the spells are shorter than the run; the
// calibration in calib.go deals with the longer ones.
type opStats struct {
	n     int64
	alloc uint64
	names []string             // every op's name, in order
	byOp  map[string][]float64 // CPU ms per op name
	runs  map[string][]float64 // engine-run CPU ms per run name
	steps map[string]int64     // PE steps (N × Result.Time) per run name
	cal   calibrator           // sampled before every op
}

// time runs fn as one timed op named name and returns its CPU time. A
// calibration sample and then a full collection come first (outside
// the timing); the collection makes every op start from the same heap
// instead of paying for its predecessor's garbage.
func (s *opStats) time(name string, fn func()) time.Duration {
	s.cal.sample()
	runtime.GC()
	a0 := totalAlloc()
	d := cpuTime(fn)
	s.alloc += totalAlloc() - a0
	s.n++
	s.names = append(s.names, name)
	if s.byOp == nil {
		s.byOp = map[string][]float64{}
	}
	s.byOp[name] = append(s.byOp[name], ms(d))
	return d
}

// engine adds an engine run named name of peSteps PE steps that took
// CPU time d.
func (s *opStats) engine(name string, d time.Duration, peSteps int64) {
	if s.runs == nil {
		s.runs, s.steps = map[string][]float64{}, map[string]int64{}
	}
	s.runs[name] = append(s.runs[name], ms(d))
	s.steps[name] = peSteps
}

// best returns an op's best (least) CPU time in ms.
func (s *opStats) best(name string) float64 { return least(s.byOp[name]) }

// metrics fills the end-to-end metrics every sequential workload
// defines the same way, charging every op its best CPU time. The caller
// scales the times with s.cal once it has added its own.
// cpu_p99_ms is the best CPU time of the costliest op: a fixed mix of a
// few dozen ops per run is too few for a 99th percentile.
func (s *opStats) metrics(m map[string]metric) {
	var total, costliest float64
	var costs []float64
	for _, name := range s.names {
		c := s.best(name)
		total += c
		costs = append(costs, c)
		costliest = math.Max(costliest, c)
	}
	var steps int64
	var runMs float64
	for name, cpus := range s.runs {
		steps += s.steps[name]
		runMs += least(cpus)
	}
	m["ops_per_cpu_s"] = metric{float64(len(s.names)) / (total / 1e3), "1/s"}
	m["cpu_p50_ms"] = metric{median(costs), "ms"}
	m["cpu_p99_ms"] = metric{costliest, "ms"}
	m["pe_steps_per_cpu_s"] = metric{float64(steps) / (runMs / 1e3), "1/s"}
	m["alloc_mb_per_op"] = metric{float64(s.alloc) / float64(s.n) / mb, "MB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
}

// least returns the smallest of xs; 0 for none.
func least(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// most returns the largest of xs; 0 for none.
func most(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAlloc is the exact cumulative heap allocation in bytes (stops
// the world briefly; used around whole measured loops).
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// heapAllocs is the cumulative heap allocation in bytes without
// stopping the world; used around single layer calls.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const mb = 1 << 20

// memEqual compares two engines' final memory images.
func memEqual(a, b [][]ir.Word) bool {
	return slices.EqualFunc(a, b, func(x, y []ir.Word) bool { return slices.Equal(x, y) })
}

// loop runs round until the measured time is spent, but at least
// minRounds times. round receives its index.
func loop(seconds float64, minRounds int, round func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// timeSetups runs setup once as a warm-up and then n times, and returns
// the median CPU time of the n in seconds. Each setup returns its
// teardown; all but the last are torn down (outside the timing), and
// the last one's teardown is returned to the caller, whose measured
// loop uses that state.
func timeSetups(n int, setup func() (func(), error)) (float64, func(), error) {
	var cpus []float64
	teardown := func() {}
	for i := 0; i <= n; i++ {
		teardown()
		var td func()
		var err error
		d := cpuTime(func() { td, err = setup() })
		if err != nil {
			return 0, nil, err
		}
		if i > 0 {
			cpus = append(cpus, d.Seconds())
		}
		teardown = td
	}
	return median(cpus), teardown, nil
}
