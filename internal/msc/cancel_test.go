package msc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"msc/internal/cfg"
	"msc/internal/faultinject"
)

// cancelCorpusGraph loads a shipped program whose uncompressed
// automaton is large enough (28 meta states) that cancellation can land
// mid-conversion at several distinct points.
func cancelCorpusGraph(t *testing.T) *cfg.Graph {
	t.Helper()
	src, err := os.ReadFile("../../testdata/vet/barriers.mc")
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Simplify(cfg.MustBuild(string(src)))
}

// TestConvertCancelAtSeededPoints cancels the conversion after the k-th
// freshly interned meta state, for several seeded k, and requires: a
// context.Canceled error, no leaked workers, and a byte-identical
// automaton when the same conversion is re-run without interference.
func TestConvertCancelAtSeededPoints(t *testing.T) {
	forceParallel(t)
	g := cancelCorpusGraph(t)
	opt := DefaultOptions(false)
	opt.MaxStates = 1 << 14
	opt.Workers = 4

	pristine, err := Convert(g, opt)
	if err != nil {
		t.Fatalf("pristine conversion failed: %v", err)
	}
	want := fingerprint(pristine)
	total := pristine.NumStates()
	if total < 12 {
		t.Fatalf("corpus program too small for cancellation points: %d meta states", total)
	}

	for _, k := range []int{1, 3, 8, total / 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			leak := faultinject.LeakCheck()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			deactivate := faultinject.Activate(&faultinject.Plan{
				Fault:  faultinject.CancelAfterStates,
				States: k,
				Cancel: cancel,
			})
			_, err := ConvertContext(ctx, g, opt)
			deactivate()
			if err == nil {
				t.Fatalf("k=%d: conversion completed despite cancellation", k)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: want context.Canceled in chain, got %v", k, err)
			}
			if lerr := leak(); lerr != nil {
				t.Fatalf("k=%d: %v", k, lerr)
			}

			// The interrupted conversion must leave no residue: a clean
			// re-run yields the pristine automaton byte for byte.
			a, err := Convert(g, opt)
			if err != nil {
				t.Fatalf("k=%d: re-run failed: %v", k, err)
			}
			if got := fingerprint(a); got != want {
				t.Fatalf("k=%d: re-run automaton differs from pristine", k)
			}
		})
	}
}

// TestConvertPreCanceledContext requires an already-canceled context to
// fail fast with context.Canceled and leak nothing.
func TestConvertPreCanceledContext(t *testing.T) {
	forceParallel(t)
	g := cancelCorpusGraph(t)
	opt := DefaultOptions(true)
	opt.Workers = 4

	leak := faultinject.LeakCheck()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ConvertContext(ctx, g, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if lerr := leak(); lerr != nil {
		t.Fatal(lerr)
	}
}

// TestConvertCancelManyWorkers drives the widest pool the matrix uses
// under mid-flight cancellation; with -race this doubles as a drain
// soundness check for the claim/commit protocol.
func TestConvertCancelManyWorkers(t *testing.T) {
	forceParallel(t)
	g := cancelCorpusGraph(t)
	opt := DefaultOptions(true)
	opt.Workers = 8

	for _, k := range []int{2, 5} {
		leak := faultinject.LeakCheck()
		ctx, cancel := context.WithCancel(context.Background())
		deactivate := faultinject.Activate(&faultinject.Plan{
			Fault:  faultinject.CancelAfterStates,
			States: k,
			Cancel: cancel,
		})
		_, err := ConvertContext(ctx, g, opt)
		deactivate()
		cancel()
		if err == nil {
			t.Fatalf("k=%d: conversion completed despite cancellation", k)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want context.Canceled, got %v", k, err)
		}
		if lerr := leak(); lerr != nil {
			t.Fatalf("k=%d: %v", k, lerr)
		}
	}

	// Windows of three slots, with every generation on the pool, make
	// the commit of a window's last state a cancellation point between
	// windows: the next window's workers start canceled, claim nothing,
	// and must still drain. Cancel after every intern count of the
	// uncompressed automaton, whose generations span several windows,
	// and require that some cancel lands between two windows of one
	// generation: every expanded state reached the commit loop, and the
	// next state belongs to the same generation.
	forceWindow(t, 3)
	parallelFrontierMin = 1
	opt = DefaultOptions(false)
	opt.Workers = 8
	pristine, err := Convert(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	level := bfsLevels(pristine, pristine.NumStates())
	between := 0
	for k := 1; k <= pristine.NumStates(); k++ {
		leak := faultinject.LeakCheck()
		ctx, cancel := context.WithCancel(context.Background())
		deactivate := faultinject.Activate(&faultinject.Plan{
			Fault:  faultinject.CancelAfterStates,
			States: k,
			Cancel: cancel,
		})
		c := testConverter(ctx, g, opt)
		_, _, err := c.convertOnce()
		deactivate()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want context.Canceled, got %v", k, err)
		}
		if lerr := leak(); lerr != nil {
			t.Fatalf("k=%d: %v", k, lerr)
		}
		j := c.curIdx
		if j >= 0 && j+1 < len(level) && level[j+1] == level[j] && expansions(c) == int64(j)+1 {
			between++
		}
	}
	if between == 0 {
		t.Fatal("no cancellation landed between two windows of a generation")
	}
}
