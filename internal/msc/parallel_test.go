package msc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"msc/internal/cfg"
	"msc/internal/mimdc"
	"msc/internal/mscerr"
	"msc/internal/progen"
)

// forceParallel lowers the frontier gate so even tiny corpora exercise
// the worker-pool path, restoring it when the test ends.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelFrontierMin
	parallelFrontierMin = 2
	t.Cleanup(func() { parallelFrontierMin = old })
}

// fingerprint serializes every observable byte of an automaton: the
// textual form, both Graphviz renderings (ID numbering, arc order, heat
// labels), and the scalar results. Two automata with equal fingerprints
// are indistinguishable to every consumer, goldens included.
func fingerprint(a *Automaton) string {
	share := make([]float64, len(a.States))
	for i := range share {
		share[i] = float64(i) / float64(len(a.States)+1)
	}
	return fmt.Sprintf("start=%d splits=%d restarts=%d overapprox=%v blocks=%d\n%s\n%s\n%s",
		a.Start, a.Splits, a.Restarts, a.OverApprox, a.G.NumBlocks(),
		a.String(), a.Dot("fp"), a.DotHeat("fp", share))
}

// parallelMatrix is the option matrix the determinism property is
// checked under: base enumeration, compression with subset merging,
// time splitting (restarts + warm memo invalidation), and exact barrier
// tracking.
func parallelMatrix() map[string]Options {
	base := DefaultOptions(false)
	base.MaxStates = 1 << 14
	compressed := DefaultOptions(true)
	timesplit := DefaultOptions(false)
	timesplit.TimeSplit = true
	timesplit.MaxStates = 1 << 14
	exact := DefaultOptions(true)
	exact.BarrierExact = true
	return map[string]Options{
		"base":         base,
		"compressed":   compressed,
		"timesplit":    timesplit,
		"barrierexact": exact,
	}
}

// forceWindow shrinks the frontier window so generations span many
// windows, restoring it when the test ends.
func forceWindow(t *testing.T, n int) {
	t.Helper()
	old := frontierWindow
	frontierWindow = n
	t.Cleanup(func() { frontierWindow = old })
}

// checkParallelEqual converts g sequentially and with a forced worker
// pool, at the default frontier window and again with windows of three
// slots (so generations span many windows and restarts and guard trips
// land mid-generation), and requires byte-identical automata (or
// identical errors, e.g. the MaxStates guard firing at the same state
// count).
func checkParallelEqual(t *testing.T, name string, g *cfg.Graph, opt Options) {
	t.Helper()
	seqOpt := opt
	seqOpt.Workers = 1
	parOpt := opt
	parOpt.Workers = 4

	aSeq, errSeq := Convert(g, seqOpt)
	defaultWindow := frontierWindow
	defer func() { frontierWindow = defaultWindow }()
	for _, window := range []int{defaultWindow, 3} {
		frontierWindow = window
		aPar, errPar := Convert(g, parOpt)
		label := fmt.Sprintf("%s (window %d)", name, window)
		switch {
		case (errSeq == nil) != (errPar == nil):
			t.Fatalf("%s: sequential err = %v, parallel err = %v", label, errSeq, errPar)
		case errSeq != nil:
			if errSeq.Error() != errPar.Error() {
				t.Fatalf("%s: error text diverged:\nseq: %v\npar: %v", label, errSeq, errPar)
			}
			continue
		}
		if fpSeq, fpPar := fingerprint(aSeq), fingerprint(aPar); fpSeq != fpPar {
			t.Fatalf("%s: parallel automaton differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				label, fpSeq, fpPar)
		}
		if err := Check(aPar); err != nil {
			t.Fatalf("%s: parallel automaton fails Check: %v", label, err)
		}
	}
}

// corpusGraphs loads every MIMDC program shipped in the repository
// (examples/ and testdata/, including the vet negatives: a program that
// deadlocks at run time still has a well-defined automaton). Programs
// that fail to parse or analyze are skipped — this property test is
// about conversion, not the front end.
func corpusGraphs(t *testing.T) map[string]*cfg.Graph {
	t.Helper()
	out := make(map[string]*cfg.Graph)
	for _, dir := range []string{"../../examples", "../../testdata"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".mc" {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			prog, err := mimdc.Parse(string(src))
			if err != nil {
				return nil
			}
			if err := mimdc.Analyze(prog); err != nil {
				return nil
			}
			g, err := cfg.Build(prog)
			if err != nil {
				return nil
			}
			out[filepath.Base(path)] = cfg.Simplify(g)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", dir, err)
		}
	}
	if len(out) < 5 {
		t.Fatalf("corpus too small: found %d programs", len(out))
	}
	return out
}

// TestParallelDeterministicCorpus is the property test for the
// concurrent frontier: over the whole shipped program corpus and the
// full option matrix, a forced multi-worker conversion must produce an
// automaton byte-identical to the sequential one.
func TestParallelDeterministicCorpus(t *testing.T) {
	forceParallel(t)
	for prog, g := range corpusGraphs(t) {
		for mode, opt := range parallelMatrix() {
			t.Run(prog+"/"+mode, func(t *testing.T) {
				checkParallelEqual(t, prog+"/"+mode, g, opt)
			})
		}
	}
}

// TestParallelDeterministicRandom extends the property to randomized
// progen programs (barriers, calls, loops), which reach graph shapes
// the curated corpus does not.
func TestParallelDeterministicRandom(t *testing.T) {
	forceParallel(t)
	for seed := int64(1); seed <= 12; seed++ {
		src := progen.Source(progen.Params{
			Seed:     seed,
			Barriers: seed%2 == 0,
			Floats:   seed%3 == 0,
			Calls:    true,
			MaxDepth: 3,
			MaxStmts: 5,
			Vars:     4,
			LoopTrip: 3,
		})
		g := cfg.Simplify(cfg.MustBuild(src))
		for mode, opt := range parallelMatrix() {
			name := fmt.Sprintf("seed%d/%s", seed, mode)
			t.Run(name, func(t *testing.T) {
				checkParallelEqual(t, name, g, opt)
			})
		}
	}
}

// TestParallelDeterministicFigures pins the property on the paper's own
// examples, whose automata are already golden-checked elsewhere.
func TestParallelDeterministicFigures(t *testing.T) {
	forceParallel(t)
	for name, src := range map[string]string{"listing4": listing4, "listing3": listing3} {
		g := graph(t, src)
		for mode, opt := range parallelMatrix() {
			t.Run(name+"/"+mode, func(t *testing.T) {
				checkParallelEqual(t, name+"/"+mode, g, opt)
			})
		}
	}
}

// testConverter builds a converter as ConvertContext does, so a test can
// run its passes one at a time and inspect where each stopped and how
// much frontier work it did.
func testConverter(ctx context.Context, g *cfg.Graph, opt Options) *converter {
	opt.fillDefaults()
	c := newConverter(g.Clone(), opt)
	c.ctx = ctx
	return c
}

// expansions is the number of meta states c's expanders expanded.
func expansions(c *converter) int64 {
	n := int64(0)
	for _, e := range c.exps {
		n += e.expansions
	}
	return n
}

// bfsLevels returns each state's BFS generation, as far as the first
// `committed` commits of a determine it (-1 elsewhere). A state's
// generation is one more than that of the state whose commit first
// interned it; commits run in ID order, so one ID-order scan finds it.
func bfsLevels(a *Automaton, committed int) []int {
	level := make([]int, len(a.States))
	for i := range level {
		level[i] = -1
	}
	level[a.Start] = 0
	for i := 0; i < committed; i++ {
		for _, to := range a.States[i].Trans {
			if level[to] < 0 {
				level[to] = level[i] + 1
			}
		}
	}
	return level
}

// generationOffset is how far into its BFS generation the state c was
// committing when its pass stopped.
func generationOffset(c *converter) int {
	level := bfsLevels(c.a, c.curIdx)
	start := c.curIdx
	for start > 0 && level[start-1] == level[c.curIdx] {
		start--
	}
	return c.curIdx - start
}

// TestParallelTimeSplitLaterWindow pins the warm restart a windowed
// frontier must get right: a §2.4 split that fires in a generation's
// second or later window, after earlier windows of that generation were
// committed, leaving the rest of its own window uncommitted.
func TestParallelTimeSplitLaterWindow(t *testing.T) {
	forceParallel(t)
	const window = 3
	forceWindow(t, window)
	src, err := os.ReadFile("../../examples/mc/debug-guards.mc")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Simplify(cfg.MustBuild(string(src)))
	opt := parallelMatrix()["timesplit"]
	opt.Workers = 4

	// Replay the restart chain pass by pass, as Convert does.
	c := testConverter(context.Background(), g, opt)
	later := 0
	for {
		_, didSplit, err := c.convertOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !didSplit {
			break
		}
		if generationOffset(c) >= window {
			later++
		}
	}
	if later == 0 {
		t.Fatal("no time split restarted in a generation's later window")
	}
	checkParallelEqual(t, "debug-guards.mc/timesplit", g, opt)
}

// TestParallelBudgetTripBounded pins the fail-fast property of the
// windowed frontier: a budget that trips mid-generation fails with the
// same BudgetError at any worker count, and the worker pool expands at
// most one window beyond what the sequential path expands to reach the
// trip. The expansion count is deterministic, so the bound holds
// exactly rather than on average.
func TestParallelBudgetTripBounded(t *testing.T) {
	src, err := os.ReadFile("../../testdata/robust/deepnest.mc")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Simplify(cfg.MustBuild(string(src)))

	states := DefaultOptions(false)
	states.MaxStates = 4096
	mem := DefaultOptions(false)
	mem.MaxMemBytes = 400_000
	for _, tc := range []struct {
		resource string
		opt      Options
	}{{"meta_states", states}, {"mem_bytes", mem}} {
		t.Run(tc.resource, func(t *testing.T) {
			run := func(workers int) (*mscerr.BudgetError, int64) {
				t.Helper()
				opt := tc.opt
				opt.Workers = workers
				c := testConverter(context.Background(), g, opt)
				_, _, err := c.convertOnce()
				var be *mscerr.BudgetError
				if !errors.As(err, &be) || be.Resource != tc.resource {
					t.Fatalf("workers=%d: want a %s BudgetError, got %v", workers, tc.resource, err)
				}
				return be, expansions(c)
			}
			seqErr, seqExp := run(1)
			parErr, parExp := run(4)
			if *seqErr != *parErr {
				t.Fatalf("BudgetError diverged:\nseq: %+v\npar: %+v", *seqErr, *parErr)
			}
			bound := seqExp + int64(frontierWindow)
			if parExp > bound {
				t.Fatalf("4 workers expanded %d states, want <= %d (sequential %d + one window)",
					parExp, bound, seqExp)
			}

			// The program must make the bound bite: expanding the whole
			// tripping generation, as one unbounded window does, exceeds it.
			forceWindow(t, 1<<30)
			if _, wide := run(4); wide <= bound {
				t.Fatalf("whole-generation expansion = %d, within the bound %d; the trip is not mid-generation", wide, bound)
			}
		})
	}
}
