package main

import (
	"errors"
	"fmt"

	"msc"
	"msc/internal/analysis"
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/codegen"
	"msc/internal/csi"
	"msc/internal/hashgen"
	"msc/internal/mimdc"
	metastate "msc/internal/msc"
	"msc/internal/obs"
	"msc/internal/simd"
)

// tracedCompile is msc.Compile taken apart: it calls each layer's
// public function itself, inside a span, and puts the SIMD program
// together from codegen.Compile (CSI and Hash off), the csi.InduceLimited
// schedules and the hashgen.Search tables. The result's Fingerprint()
// must equal msc.Compile's, which proves the traced run compiles the
// same program. It supports the Config fields the workloads set:
// Compress, CSI, Hash, ConvertWorkers and Limits.MaxStates.
func tracedCompile(o *op, src string, conf msc.Config) (*msc.Compiled, error) {
	var err error
	var ast *mimdc.Program
	o.layer("mimdc.parse", "", func() { ast, err = mimdc.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	o.count("mimdc.tokens", int64(ast.Tokens))
	o.layer("mimdc.analyze", "", func() { err = mimdc.Analyze(ast) })
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var g *cfg.Graph
	o.layer("cfg.lower", "", func() { g, err = cfg.BuildWith(ast, cfg.Options{ExpandCalls: conf.ExpandCalls}) })
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	var st cfg.SimplifyStats
	o.layer("cfg.simplify", "", func() {
		st = cfg.SimplifyWithStats(g)
		err = cfg.Verify(g)
	})
	if err != nil {
		return nil, fmt.Errorf("simplify: %w", err)
	}
	o.count("cfg.blocks", int64(st.BlocksAfter))

	mopt := metastate.DefaultOptions(conf.Compress)
	if conf.MaxStates != 0 {
		mopt.MaxStates = conf.MaxStates
	}
	if conf.Limits.MaxStates != 0 {
		mopt.MaxStates = conf.Limits.MaxStates
	}
	mopt.Workers = conf.ConvertWorkers
	rec := obs.NewRecorder()
	mopt.Metrics = rec
	var a *metastate.Automaton
	o.layer("msc.convert", "msc.convert_alloc_mb", func() { a, err = metastate.Convert(g, mopt) })
	o.count("msc.meta_explored", rec.Snapshot().Counter(obs.CounterMetaExplored))
	if err != nil {
		var be *msc.BudgetError
		if errors.As(err, &be) {
			return nil, be
		}
		return nil, fmt.Errorf("convert: %w", err)
	}
	o.count("msc.meta_states", int64(a.NumStates()))
	o.layer("msc.check", "", func() { err = metastate.Check(a) })
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	o.layer("analysis.vet", "", func() { analysis.Analyze(g, a) })

	var scheds []*csi.Schedule
	if conf.CSI {
		o.layer("csi.induce", "csi.alloc_mb", func() { scheds, err = induceAll(o, a) })
		if err != nil {
			return nil, err
		}
	}
	var hashes []*simd.HashFn
	if conf.Hash && !(a.Opt.Compress || a.Opt.MergeSubsets || a.OverApprox) {
		// Superset dispatch cannot go through an exact hash table, so
		// codegen searches only for exact automata.
		o.layer("hashgen.search", "hashgen.alloc_mb", func() { hashes = searchAll(o, a) })
	}
	var p *simd.Program
	o.layer("codegen.emit", "codegen.alloc_mb", func() { p, err = codegen.Compile(a, codegen.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	splice(p, scheds, hashes)
	return &msc.Compiled{Source: src, Graph: g, Automaton: a, Program: p, Config: conf}, nil
}

// induceAll runs CSI on every meta state, fed the member threads
// rebuilt from the automaton the way codegen builds them: in exact
// barrier mode a barrier-wait member of a mixed meta state contributes
// no code.
func induceAll(o *op, a *metastate.Automaton) ([]*csi.Schedule, error) {
	scheds := make([]*csi.Schedule, len(a.States))
	for i, ms := range a.States {
		allBarrier := ms.Set.Subset(a.Barriers)
		var threads []csi.Thread
		for _, id := range ms.Set.Elems() {
			b := a.G.Block(id)
			if b == nil {
				return nil, fmt.Errorf("csi: ms%d references missing MIMD state %d", ms.ID, id)
			}
			if b.Barrier && !allBarrier {
				continue
			}
			threads = append(threads, csi.Thread{Guard: bitset.Of(b.ID), Code: b.Code})
		}
		s, err := csi.InduceLimited(threads, csi.Limits{})
		if err != nil {
			return nil, fmt.Errorf("csi: ms%d: %w", ms.ID, err)
		}
		o.count("csi.saved_cycles", int64(s.Saved()))
		scheds[i] = s
	}
	return scheds, nil
}

// maxHashedWays is codegen's bound on the switch width worth a
// customized hash.
const maxHashedWays = 32

// searchAll runs hashgen.Search over every 2–32-way dispatch whose keys
// fit one word, and builds the jump table the way codegen does. A nil
// entry means the state dispatches without a hash.
func searchAll(o *op, a *metastate.Automaton) []*simd.HashFn {
	hashes := make([]*simd.HashFn, len(a.States))
	for i, ms := range a.States {
		if len(ms.Trans) < 2 || len(ms.Trans) > maxHashedWays {
			continue
		}
		keys := make([]uint64, len(ms.Trans))
		fits := true
		for j, to := range ms.Trans {
			w, ok := a.States[to].Set.Word()
			if !ok {
				fits = false
				break
			}
			keys[j] = w
		}
		if !fits {
			continue
		}
		h, tried, err := hashgen.Search(keys)
		o.count("hashgen.candidates_tried", int64(tried))
		if err != nil {
			continue
		}
		table := make([]int, h.Mask+1)
		for k := range table {
			table[k] = -1
		}
		for j, k := range keys {
			table[h.Index(k)] = ms.Trans[j]
		}
		h.Table = table
		hashes[i] = h
		o.count("hashgen.tables_built", 1)
	}
	return hashes
}

// splice replaces each meta state's serial body with its CSI schedule
// and attaches its hash table. Terminator slots follow the body, as
// codegen emits them.
func splice(p *simd.Program, scheds []*csi.Schedule, hashes []*simd.HashFn) {
	for i, mc := range p.Meta {
		if scheds != nil {
			slots := make([]simd.Slot, 0, len(mc.Slots))
			for _, sl := range scheds[i].Slots {
				slots = append(slots, simd.Slot{
					Kind: simd.SlotExec, Guard: sl.Guard, Instr: sl.Instr,
					Block: sl.Guard.Min(), Pos: sl.Instr.Pos,
				})
			}
			for _, sl := range mc.Slots {
				if sl.Kind != simd.SlotExec {
					slots = append(slots, sl)
				}
			}
			mc.Slots = slots
		}
		if hashes != nil && hashes[i] != nil {
			mc.Trans.Hash = hashes[i]
		}
	}
}
