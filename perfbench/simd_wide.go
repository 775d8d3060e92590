package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"msc"
	"msc/internal/harness"
	"msc/internal/ir"
	"msc/internal/simd"
)

// The simd-wide workload: the SIMD engine alone at mega width. Programs
// are compiled in setup. Each round first recompiles every program as
// one timed batch, and then times RunSIMD (poolWorkers workers, so
// chunk striping runs) on divergent, stencil and farm at about 2^20 PEs
// and collatz at about 2^16, each run on its own, plus one capped run
// of a non-terminating program that must stop with a StepLimitError.
// One caller, sequential, no cache.

type wideRow struct {
	name   string
	file   string // under the repository root; "" uses src as given
	src    string
	n      int // machine width, drawn from the seed
	active int // InitialActive
	c      *msc.Compiled
	fp     string      // the setup compile's Fingerprint
	want   [][]ir.Word // RunMIMD's final memory at the same width
}

const (
	// Widths are 2^k minus a seeded 0..wideJitter, so the last chunk
	// and the last mask word are usually partial.
	wideJitter = 4095
	// The capped run: a non-terminating program at cappedWidth PEs,
	// stopped after cappedSteps meta-state executions.
	cappedWidth = 1 << 16
	cappedSteps = 100
	// wideCompiles is how many times each round compiles each program
	// as one timed batch: one compile takes well under a millisecond.
	wideCompiles = 100
)

func wideRows(o options) ([]*wideRow, *wideRow, error) {
	r := rand.New(rand.NewSource(o.seed))
	rows := []*wideRow{
		{name: "divergent", file: "examples/mc/divergent.mc", n: 1<<20 - r.Intn(wideJitter+1)},
		{name: "stencil", file: "examples/mc/stencil.mc", n: 1<<20 - r.Intn(wideJitter+1)},
		{name: "farm", file: "examples/mc/farm.mc", n: 1<<20 - r.Intn(wideJitter+1), active: 1},
		{name: "collatz", src: harness.Collatz, n: 1<<16 - r.Intn(wideJitter/16+1)},
	}
	capped := &wideRow{name: "nonterminating", file: "testdata/robust/nonterminating.mc", n: cappedWidth}
	for _, row := range append(rows, capped) {
		if row.file != "" {
			src, err := readInput(o, row.file)
			if err != nil {
				return nil, nil, err
			}
			row.src = src
		}
	}
	return rows, capped, nil
}

func runSIMDWide(o options) (*result, error) {
	var rows []*wideRow
	var capped *wideRow
	setupS, teardown, err := timeSetups(9, func() (func(), error) {
		var err error
		if rows, capped, err = wideRows(o); err != nil {
			return nil, err
		}
		for _, row := range append(rows, capped) {
			if row.c, err = msc.Compile(row.src, msc.DefaultConfig()); err != nil {
				return nil, fmt.Errorf("compile %s: %w", row.name, err)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	for _, row := range append(rows, capped) {
		row.fp = row.c.Fingerprint()
	}
	// A collection before each reference run starts it from the same
	// heap in every run, so that the peak resident set does not depend
	// on when the collector happened to run.
	for _, row := range rows {
		runtime.GC()
		ref, err := row.c.RunMIMD(msc.RunConfig{N: row.n, InitialActive: row.active})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", row.name, err)
		}
		row.want = ref.Mem
	}

	res := &result{}
	if o.trace {
		return simdWideTraced(o, rows, capped, res)
	}
	var st opStats
	compileCPU := map[string][]float64{}
	err = loop(o.seconds, 1, func(int) error {
		for _, row := range append(rows, capped) {
			var c *msc.Compiled
			var err error
			runtime.GC()
			d := cpuTime(func() {
				for k := 0; k < wideCompiles && err == nil; k++ {
					c, err = msc.Compile(row.src, msc.DefaultConfig())
				}
			})
			res.Attempted++
			if err == nil && c.Fingerprint() != row.fp {
				err = errors.New("fingerprint changed")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: recompile %s: %v\n", row.name, err)
				res.Failed++
				continue
			}
			compileCPU[row.name] = append(compileCPU[row.name], ms(d)/wideCompiles)
		}
		for _, row := range rows {
			var out *simd.Result
			var err error
			d := st.time(row.name, func() {
				out, err = row.c.RunSIMD(msc.RunConfig{N: row.n, InitialActive: row.active, Workers: poolWorkers})
			})
			if !checkWide(row, out, err) {
				res.Failed++
				continue
			}
			st.engine(row.name, d, int64(row.n)*out.Time)
		}
		var err error
		st.time(capped.name, func() {
			_, err = capped.c.RunSIMD(msc.RunConfig{N: capped.n, MaxSteps: cappedSteps, Workers: poolWorkers})
		})
		return checkStepLimit(err)
	})
	if err != nil {
		return nil, err
	}
	var compileBest []float64
	for _, w := range compileCPU {
		compileBest = append(compileBest, least(w))
	}
	res.Attempted += st.n
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"setup_s":                {setupS, "s"},
		"compile_cpu_geomean_ms": {geomean(compileBest), "ms"},
		"budget_fail_cpu_ms":     {st.best(capped.name), "ms"},
	}
	st.metrics(res.Metrics)
	scaleTimes(res.Metrics, st.cal.scale())
	return res, nil
}

// checkWide compares a run's final memory with the MIMD reference.
func checkWide(row *wideRow, out *simd.Result, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: RunSIMD: %v\n", row.name, err)
		return false
	}
	if !memEqual(out.Mem, row.want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s@%d: SIMD memory differs from RunMIMD\n", row.name, row.n)
		return false
	}
	return true
}

// checkStepLimit is the capped run's guard.
func checkStepLimit(err error) error {
	var se *msc.StepLimitError
	if !errors.As(err, &se) {
		return fmt.Errorf("guard: capped run returned %v, want a StepLimitError", err)
	}
	return nil
}

// simdWideTraced makes every run twice per round, once through
// RunSIMD and once through simd.Run called directly, alternating which
// goes first.
func simdWideTraced(o options, rows []*wideRow, capped *wideRow, res *result) (*result, error) {
	tr := newTracer()
	var rounds []*round
	var untraced, traced []float64
	err := loop(o.seconds, 1, func(i int) error {
		r := newRound()
		rounds = append(rounds, r)
		var uNs, tNs int64
		// pair runs row both ways and checks the traced result.
		pair := func(row *wideRow, maxSteps int) (uerr, terr error) {
			untracedRun := func() {
				runtime.GC()
				t0 := time.Now()
				_, uerr = row.c.RunSIMD(msc.RunConfig{N: row.n, InitialActive: row.active, MaxSteps: maxSteps, Workers: poolWorkers})
				uNs += time.Since(t0).Nanoseconds()
			}
			var out *simd.Result
			tracedRun := func() {
				runtime.GC()
				op := tr.beginOp(r, "run "+row.name)
				t0 := time.Now()
				out, terr = simd.Run(row.c.Program, simd.Config{N: row.n, InitialActive: row.active, MaxMeta: maxSteps, Workers: poolWorkers})
				d := time.Since(t0)
				op.span("simd.run", t0, d, 0)
				op.end()
				tNs += time.Since(t0).Nanoseconds()
				if terr != nil {
					out = nil
				}
				r.engine(d, out, row.n)
			}
			if i%2 == 0 {
				untracedRun()
				tracedRun()
			} else {
				tracedRun()
				untracedRun()
			}
			if maxSteps == 0 && uerr == nil && !checkWide(row, out, terr) {
				terr = errors.New("output check failed")
			}
			return uerr, terr
		}
		for _, row := range rows {
			uerr, terr := pair(row, 0)
			res.Attempted++
			if uerr != nil || terr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: RunSIMD: %v; traced: %v\n", row.name, uerr, terr)
				res.Failed++
			}
		}
		uerr, terr := pair(capped, cappedSteps)
		res.Attempted++
		untraced = append(untraced, float64(uNs)/float64(r.ops)/1e6)
		traced = append(traced, float64(tNs)/float64(r.ops)/1e6)
		if err := checkStepLimit(uerr); err != nil {
			return err
		}
		return checkStepLimit(terr)
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Correct = res.Failed == 0
	res.Metrics = layerReport(rounds, untraced, traced, []string{"simd.run"})
	addEngineMetrics(res.Metrics, rounds)
	fillLayerMetrics(res.Metrics)
	return res, nil
}
