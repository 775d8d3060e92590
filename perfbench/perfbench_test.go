package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"msc"
	"msc/internal/ir"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the command reports %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i := 0; i < len(b.EndToEnd) && i < len(endToEndMetrics); i++ {
		if got, want := (metricDef{b.EndToEnd[i].Name, b.EndToEnd[i].Unit}), endToEndMetrics[i]; got != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, command %v", i, got, want)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the command reports %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i := 0; i < len(b.PerLayer) && i < len(perLayerMetrics); i++ {
		if got, want := (metricDef{b.PerLayer[i].Name, b.PerLayer[i].Unit}), perLayerMetrics[i]; got != want {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, command %v", i, got, want)
		}
	}
}

// TestHeldOutSeed runs every workload briefly, plain and traced, on a
// seed other than the pinned one: each completes with no failed op, and
// run's own check accepts its metrics (exactly the code's tables, which
// TestBenchmarkJSONMatchesMetrics holds equal to BENCHMARK.json).
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range readBenchmarkJSON(t).Workloads {
		for _, trace := range []bool{false, true} {
			o := options{root: "..", workload: w.Name, seed: heldOutSeed, seconds: 0.1, trace: trace,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestTracedCompileMatchesCompile pins the traced pipeline to
// msc.Compile's output, compressed and not.
func TestTracedCompileMatchesCompile(t *testing.T) {
	o := options{root: ".."}
	src, err := readInput(o, "examples/mc/primes.mc")
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []msc.Config{largeConfig, msc.DefaultConfig(), {}} {
		want, err := msc.Compile(src, conf)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := tracedCompile(tr.beginOp(newRound(), "compile"), src, conf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("config %+v: traced pipeline and msc.Compile compile different programs", conf)
		}
	}
}

// TestWrongReferenceCaught feeds each workload's output check a
// deliberately wrong reference and requires it to fail.
func TestWrongReferenceCaught(t *testing.T) {
	src, err := readInput(options{root: ".."}, "examples/mc/divergent.mc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunMIMD(msc.RunConfig{N: checkWidth})
	if err != nil {
		t.Fatal(err)
	}
	wrong := make([][]ir.Word, len(ref.Mem))
	for i := range ref.Mem {
		wrong[i] = append([]ir.Word(nil), ref.Mem[i]...)
	}
	wrong[3][0]++

	if _, ok := checkLarge(&largeProgram{name: "divergent", want: ref.Mem}, c); !ok {
		t.Error("compile-large check rejected a correct output")
	}
	if _, ok := checkLarge(&largeProgram{name: "divergent", want: wrong}, c); ok {
		t.Error("compile-large check accepted a wrong reference")
	}
	if _, ok := checkLarge(&largeProgram{name: "divergent", want: ref.Mem, fp: "0"}, c); ok {
		t.Error("compile-large check accepted a changed fingerprint")
	}

	out, err := c.RunSIMD(msc.RunConfig{N: checkWidth})
	if err != nil {
		t.Fatal(err)
	}
	if !checkWide(&wideRow{name: "divergent", n: checkWidth, want: ref.Mem}, out, nil) {
		t.Error("simd-wide check rejected a correct output")
	}
	if checkWide(&wideRow{name: "divergent", n: checkWidth, want: wrong}, out, nil) {
		t.Error("simd-wide check accepted a wrong reference")
	}

	k := newSvcChecker()
	rep := svcReply{
		req:    svcRequest{kind: kindMiss, run: true, src: src, ref: src},
		status: http.StatusOK,
		ok:     &msc.CompileResponse{MetaStates: c.MetaStates(), Run: &msc.RunResponse{Cycles: 0}},
	}
	want := k.ref(src, true)
	rep.ok.Run.Cycles = want.cycles
	if !k.check(rep) {
		t.Error("service-mixed check rejected a correct reply")
	}
	k.refs["true|"+src] = svcRef{metaStates: want.metaStates, cycles: want.cycles + 1}
	if k.check(rep) {
		t.Error("service-mixed check accepted a wrong reference")
	}
}

// TestGuards checks that the guards refuse a workload that stopped
// measuring what it claims.
func TestGuards(t *testing.T) {
	if checkBudget(nil) == nil {
		t.Error("a capped compile that succeeded passed the guard")
	}
	if checkBudget(&msc.BudgetError{Resource: "mem_bytes"}) == nil {
		t.Error("a capped compile that overran the wrong budget passed the guard")
	}
	if checkStepLimit(nil) == nil {
		t.Error("a capped run that halted passed the guard")
	}
	hit := svcReply{outcome: "hit"}
	stored := svcReply{outcome: "stored"}
	var seen outcomes
	seen.add(hit)
	seen.add(hit)
	if seen.guard() == nil {
		t.Error("a service run without stored misses passed the guard")
	}
	seen = outcomes{}
	seen.add(stored)
	if seen.guard() == nil {
		t.Error("a service run without cache hits passed the guard")
	}
	seen.add(hit)
	if err := seen.guard(); err != nil {
		t.Error(err)
	}

	m := map[string]metric{}
	for _, d := range endToEndMetrics {
		m[d.name] = metric{1, d.unit}
	}
	if err := checkMetrics(m, false); err != nil {
		t.Error(err)
	}
	m["budget_fail_cpu_ms"] = metric{0, "ms"}
	if checkMetrics(m, false) == nil {
		t.Error("an end-to-end metric of 0 passed the result check")
	}
	delete(m, "budget_fail_cpu_ms")
	if checkMetrics(m, false) == nil {
		t.Error("a result missing a metric passed the result check")
	}
}

// TestScaleTimes checks that calibration scales every time metric and
// nothing else.
func TestScaleTimes(t *testing.T) {
	m := map[string]metric{}
	for _, d := range endToEndMetrics {
		m[d.name] = metric{1, d.unit}
	}
	scaleTimes(m, 2)
	for _, d := range endToEndMetrics {
		want := 1.0
		switch d.name {
		case "setup_s", "cpu_p50_ms", "cpu_p99_ms", "compile_cpu_geomean_ms", "budget_fail_cpu_ms":
			want = 2
		case "ops_per_cpu_s", "pe_steps_per_cpu_s":
			want = 0.5
		}
		if got := m[d.name].Value; got != want {
			t.Errorf("%s scaled to %v, want %v", d.name, got, want)
		}
	}
}
