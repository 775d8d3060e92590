package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"msc/internal/simd"
)

// span is one traced call: a layer call, or the op that caused it.
// Spans of one op share Op; Parent names the causing span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int64 {
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// round accumulates, over one round of a workload, the time and heap
// allocation each layer spent and the counts each layer reported.
type round struct {
	ops    int
	runs   int // engine runs, accounted apart from ops
	ns     map[string]int64
	alloc  map[string]uint64
	counts map[string]int64
}

func newRound() *round {
	return &round{ns: map[string]int64{}, alloc: map[string]uint64{}, counts: map[string]int64{}}
}

// op is one traced operation (a compile, a request, an engine run).
type op struct {
	t  *tracer
	r  *round
	id int64
}

// beginOp opens an op span and counts the op in r.
func (t *tracer) beginOp(r *round, name string) *op {
	r.ops++
	id := t.add(span{Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.spans[id-1].Op = id
	return &op{t: t, r: r, id: id}
}

func (o *op) end() { o.t.spans[o.id-1].End = time.Since(o.t.t0).Nanoseconds() }

// layer times fn as one call into the named layer (metric name+"_ms").
// A non-empty allocMetric also charges the heap bytes fn allocated to
// that metric. It returns the call's wall time.
func (o *op) layer(name, allocMetric string, fn func()) time.Duration {
	var a0 uint64
	if allocMetric != "" {
		a0 = heapAllocs()
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	var alloc uint64
	if allocMetric != "" {
		alloc = heapAllocs() - a0
		o.r.alloc[allocMetric] += alloc
	}
	o.span(name, start, d, alloc)
	o.r.ns[name] += d.Nanoseconds()
	return d
}

// span records a child span of the op without accounting for it.
func (o *op) span(name string, start time.Time, d time.Duration, alloc uint64) {
	s := start.Sub(o.t.t0).Nanoseconds()
	o.t.add(span{Parent: o.id, Op: o.id, Name: name, Start: s, End: s + d.Nanoseconds(), Alloc: alloc})
}

// credit subtracts d from a layer's time: the part of a call that a
// separately timed call into another layer already accounts for.
func (o *op) credit(name string, d time.Duration) { o.r.ns[name] -= d.Nanoseconds() }

func (o *op) count(name string, v int64) { o.r.counts[name] += v }

// engine records one engine run: its wall and, for a run that
// returned a result, N × Result.Time and Result.EnabledCycles.
func (r *round) engine(d time.Duration, res *simd.Result, n int) {
	r.runs++
	r.ns["simd.run"] += d.Nanoseconds()
	if res != nil {
		r.ns["simd.run_ok"] += d.Nanoseconds()
		r.counts["simd.pe_steps"] += int64(n) * res.Time
		r.counts["simd.enabled_cycles"] += res.EnabledCycles
	}
}

// addEngineMetrics turns the rounds' engine runs into the simd.*
// metrics: wall per run and per PE step (medians over rounds), and the
// first round's PE steps and utilization.
func addEngineMetrics(m map[string]metric, rounds []*round) {
	var perRun, perStep []float64
	for _, r := range rounds {
		if r.counts["simd.pe_steps"] == 0 {
			continue
		}
		perRun = append(perRun, float64(r.ns["simd.run"])/float64(r.runs)/1e6)
		perStep = append(perStep, float64(r.ns["simd.run_ok"])/float64(r.counts["simd.pe_steps"]))
	}
	if len(perRun) == 0 {
		return
	}
	r0 := rounds[0]
	m["simd.run_ms"] = metric{median(perRun), "ms"}
	m["simd.ns_per_pe_step"] = metric{median(perStep), "ns"}
	m["simd.pe_steps"] = metric{float64(r0.counts["simd.pe_steps"]), "count"}
	m["simd.utilization"] = metric{float64(r0.counts["simd.enabled_cycles"]) / float64(r0.counts["simd.pe_steps"]), "ratio"}
}

// layerReport turns traced rounds into per-layer metrics: each layer's
// time and allocation per op (median over rounds), counts from the
// first round, and the accounting check against the untraced run.
//
// untracedPerOp and tracedPerOp hold, per round, the end-to-end wall
// per op of the untraced and the traced half; residual_ratio is
// (untraced median − Σ layer medians) / untraced median.
func layerReport(rounds []*round, untracedPerOp, tracedPerOp []float64, names []string) map[string]metric {
	m := map[string]metric{}
	var sum float64
	for _, name := range names {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, float64(r.ns[name])/float64(r.ops)/1e6)
		}
		v := median(xs)
		sum += v
		m[name+"_ms"] = metric{v, "ms"}
	}
	allocs := map[string]bool{}
	for _, r := range rounds {
		for k := range r.alloc {
			allocs[k] = true
		}
	}
	for k := range allocs {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, float64(r.alloc[k])/float64(r.ops)/mb)
		}
		m[k] = metric{median(xs), "MB"}
	}
	for _, d := range perLayerMetrics {
		if v, ok := rounds[0].counts[d.name]; ok && d.unit == "count" && !strings.HasPrefix(d.name, "simd.") {
			m[d.name] = metric{float64(v), "count"}
		}
	}
	e2e := median(untracedPerOp)
	m["residual_ratio"] = metric{(e2e - sum) / e2e, "ratio"}
	m["trace_overhead_ratio"] = metric{(median(tracedPerOp) - e2e) / e2e, "ratio"}
	if r := m["residual_ratio"].Value; r > 0.10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: layers account for only %.1f%% of the end-to-end time (residual %.1f%% > 10%%)\n",
			100*(1-r), 100*r)
	}
	return m
}

// fillLayerMetrics adds every per-layer metric a workload does not
// exercise, as zero: the layer is not on that workload's path.
func fillLayerMetrics(m map[string]metric) {
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{0, d.unit}
		}
	}
}
