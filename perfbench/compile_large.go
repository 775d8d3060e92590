package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"msc"
	"msc/internal/ir"
	"msc/internal/progen"
	"msc/internal/simd"
)

// The compile-large workload: uncompressed compiles (CSI and Hash on) of
// programs with 1k–10k meta states, where conversion, CSI and the hash
// search really run, plus capped compiles that must fail with a
// meta-state BudgetError. One caller, sequential, no cache, no engine
// in the timed op.

// largeAnchor is a fixed progen seed whose uncompressed automaton has
// 1,853 meta states: the largest program of the mix. Progen seed 60
// (8,195 meta states) took 2.5–4 s to compile, which left two or three
// rounds per run on a slow host, too few for the best of repeats.
const largeAnchor = 40

// largePool lists six of the progen seeds (Barriers on) in 0–1199 whose
// uncompressed automaton has 1,000–1,100 meta states and whose compile
// took 250–350 ms when the pool was drawn. Every workload seed compiles
// all of them, in an order drawn from the seed: drawing some of them
// per seed made seeds differ by up to 10% in cost. Setup re-checks
// every program's size.
var largePool = []int64{261, 428, 660, 664, 667, 761}

const (
	minLargeStates = 1000
	maxLargeStates = 10000
	// cappedStates is the capped op's Limits.MaxStates.
	cappedStates = 16384
	// cappedPerRound capped ops run per round: the overshoot past the
	// cap varies from run to run, so the median needs the samples.
	cappedPerRound = 2
	// checkWidth is the machine width of the per-op output check.
	checkWidth = 64
)

var largeConfig = msc.Config{CSI: true, Hash: true, ConvertWorkers: poolWorkers}

type largeProgram struct {
	name string
	src  string
	ref  *msc.Compiled // size-filter compile; its graph feeds RunMIMD
	want [][]ir.Word   // RunMIMD's final memory at checkWidth
	fp   string        // Fingerprint of the first measured compile
}

// largeInputs returns the workload's programs for seed: primes, the
// large anchor and the pool, in the seed's order, plus the capped op's
// source.
func largeInputs(o options) ([]*largeProgram, string, error) {
	primes, err := readInput(o, "examples/mc/primes.mc")
	if err != nil {
		return nil, "", err
	}
	capped, err := readInput(o, "testdata/robust/deepnest.mc")
	if err != nil {
		return nil, "", err
	}
	progs := []*largeProgram{
		{name: "primes", src: primes},
		{name: fmt.Sprintf("progen-%d", largeAnchor), src: progen.Source(progen.Params{Seed: largeAnchor, Barriers: true})},
	}
	for _, s := range largePool {
		progs = append(progs, &largeProgram{
			name: fmt.Sprintf("progen-%d", s),
			src:  progen.Source(progen.Params{Seed: s, Barriers: true}),
		})
	}
	r := rand.New(rand.NewSource(o.seed))
	r.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	return progs, capped, nil
}

// sizeFilter compiles each program without CSI and Hash and rejects the
// draw unless its automaton has minLargeStates–maxLargeStates meta
// states.
func sizeFilter(progs []*largeProgram) error {
	for _, p := range progs {
		c, err := msc.Compile(p.src, msc.Config{Limits: msc.Limits{MaxStates: maxLargeStates}})
		if err != nil {
			return fmt.Errorf("size filter: %s: %w", p.name, err)
		}
		if n := c.MetaStates(); n < minLargeStates {
			return fmt.Errorf("size filter: %s has %d meta states, want %d–%d", p.name, n, minLargeStates, maxLargeStates)
		}
		p.ref = c
	}
	return nil
}

func runCompileLarge(o options) (*result, error) {
	var progs []*largeProgram
	var capped string
	setupS, teardown, err := timeSetups(3, func() (func(), error) {
		var err error
		if progs, capped, err = largeInputs(o); err != nil {
			return nil, err
		}
		return func() {}, sizeFilter(progs)
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	for _, p := range progs {
		res, err := p.ref.RunMIMD(msc.RunConfig{N: checkWidth})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", p.name, err)
		}
		p.want = res.Mem
	}

	res := &result{}
	if o.trace {
		return compileLargeTraced(o, progs, capped, res)
	}

	var st opStats
	err = loop(o.seconds, 1, func(i int) error {
		var tables int64
		for _, p := range progs {
			var c *msc.Compiled
			var err error
			st.time(p.name, func() { c, err = msc.Compile(p.src, largeConfig) })
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: compile %s: %v\n", p.name, err)
				res.Failed++
				continue
			}
			tables += c.Stats.HashTablesBuilt
			run, ok := checkLarge(p, c)
			st.engine(p.name, run.cpu, run.peSteps)
			if !ok {
				res.Failed++
			}
		}
		if tables == 0 {
			return errors.New("guard: compile-large built no hash tables")
		}
		for k := 0; k < cappedPerRound; k++ {
			var err error
			st.time("capped", func() { _, err = msc.Compile(capped, cappedConfig()) })
			if err := checkBudget(err); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Attempted = st.n
	res.Correct = res.Failed == 0
	var progBest []float64
	for _, p := range progs {
		if w := st.byOp[p.name]; len(w) > 0 {
			progBest = append(progBest, least(w))
		}
	}
	res.Metrics = map[string]metric{
		"setup_s":                {setupS, "s"},
		"compile_cpu_geomean_ms": {geomean(progBest), "ms"},
		"budget_fail_cpu_ms":     {st.best("capped"), "ms"},
	}
	st.metrics(res.Metrics)
	scaleTimes(res.Metrics, st.cal.scale())
	return res, nil
}

func cappedConfig() msc.Config {
	conf := largeConfig
	conf.Limits.MaxStates = cappedStates
	return conf
}

// checkBudget is the capped op's guard: anything but a meta-state
// BudgetError means the workload no longer measures what it claims.
func checkBudget(err error) error {
	var be *msc.BudgetError
	if !errors.As(err, &be) || be.Resource != "meta_states" {
		return fmt.Errorf("guard: capped compile returned %v, want a meta_states BudgetError", err)
	}
	return nil
}

// engineRun is one checked engine run.
type engineRun struct {
	cpu     time.Duration
	peSteps int64 // N × Result.Time
}

// checkLarge verifies one measured compile: the fingerprint repeats
// across rounds, and the program's SIMD output at checkWidth equals the
// MIMD reference machine's.
func checkLarge(p *largeProgram, c *msc.Compiled) (engineRun, bool) {
	fp := c.Fingerprint()
	if p.fp == "" {
		p.fp = fp
	}
	ok := fp == p.fp
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: fingerprint changed between repeats\n", p.name)
	}
	runtime.GC()
	var res *simd.Result
	var err error
	run := engineRun{cpu: cpuTime(func() { res, err = c.RunSIMD(msc.RunConfig{N: checkWidth}) })}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: RunSIMD: %v\n", p.name, err)
		return run, false
	}
	run.peSteps = checkWidth * res.Time
	if !memEqual(res.Mem, p.want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: SIMD memory differs from RunMIMD\n", p.name)
		return run, false
	}
	return run, ok
}

// compileLargeTraced compiles every op twice per round, once with
// msc.Compile and once with tracedCompile, alternating which goes first
// so that both see the same heap and cache state.
func compileLargeTraced(o options, progs []*largeProgram, capped string, res *result) (*result, error) {
	tr := newTracer()
	var rounds []*round
	var untraced, traced []float64
	err := loop(o.seconds, 1, func(i int) error {
		r := newRound()
		rounds = append(rounds, r)
		var uNs, tNs int64
		// pair runs one op both ways and returns the traced result.
		pair := func(name, src string, conf msc.Config) (*msc.Compiled, *msc.Compiled, error, error) {
			var uc, tc *msc.Compiled
			var uerr, terr error
			untracedOp := func() {
				runtime.GC()
				t0 := time.Now()
				uc, uerr = msc.Compile(src, conf)
				uNs += time.Since(t0).Nanoseconds()
			}
			tracedOp := func() {
				runtime.GC()
				op := tr.beginOp(r, "compile "+name)
				t0 := time.Now()
				tc, terr = tracedCompile(op, src, conf)
				tNs += time.Since(t0).Nanoseconds()
				op.end()
			}
			if i%2 == 0 {
				untracedOp()
				tracedOp()
			} else {
				tracedOp()
				untracedOp()
			}
			return uc, tc, uerr, terr
		}
		for _, p := range progs {
			uc, tc, uerr, terr := pair(p.name, p.src, largeConfig)
			res.Attempted++
			if uerr != nil || terr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: compile %s: %v; traced: %v\n", p.name, uerr, terr)
				res.Failed++
				continue
			}
			if fp, want := tc.Fingerprint(), uc.Fingerprint(); fp != want {
				fmt.Fprintf(os.Stderr, "perfbench: %s: traced pipeline fingerprint %.12s differs from msc.Compile's %.12s\n", p.name, fp, want)
				res.Failed++
				continue
			}
			if !tracedCheckRun(r, p, tc) {
				res.Failed++
			}
		}
		for k := 0; k < cappedPerRound; k++ {
			_, _, uerr, terr := pair("capped", capped, cappedConfig())
			res.Attempted++
			if err := checkBudget(uerr); err != nil {
				return err
			}
			if err := checkBudget(terr); err != nil {
				return err
			}
		}
		untraced = append(untraced, float64(uNs)/float64(r.ops)/1e6)
		traced = append(traced, float64(tNs)/float64(r.ops)/1e6)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Correct = res.Failed == 0
	res.Metrics = layerReport(rounds, untraced, traced, compileLayers)
	addEngineMetrics(res.Metrics, rounds)
	fillLayerMetrics(res.Metrics)
	return res, nil
}

// tracedCheckRun is checkLarge's engine run, called through simd.Run
// directly and kept apart from the compile op's accounting.
func tracedCheckRun(r *round, p *largeProgram, c *msc.Compiled) bool {
	t0 := time.Now()
	res, err := simd.Run(c.Program, simd.Config{N: checkWidth})
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: simd.Run: %v\n", p.name, err)
		r.engine(d, nil, checkWidth)
		return false
	}
	r.engine(d, res, checkWidth)
	return memEqual(res.Mem, p.want)
}
