// Package csi implements Common Subexpression Induction ("Common
// Subexpression Induction", Dietz, ICPP 1992; §3.1 of the MSC paper).
//
// A meta state that merged several MIMD states contains one instruction
// sequence per thread (per enabled set of SIMD PEs). A traditional SIMD
// machine must serialize different instructions, but any instruction
// that appears in more than one sequence can be executed by all of
// those threads at once: stack code makes this sound unconditionally,
// because a shared instruction operates on each PE's private stack and
// memory. CSI therefore searches for a schedule that interleaves the
// thread sequences, merging identical instructions under a union guard,
// to minimize total broadcast cycles.
//
// The implementation follows the paper's pipeline:
//
//   - the guarded precedence structure (its "guarded DAG") is each
//     thread's code in order, with guards naming the owning thread;
//   - inter-thread CSE is a progressive weighted alignment: each thread
//     is aligned against the schedule so far by dynamic programming that
//     maximizes the cycle cost of merged instructions (optimal for each
//     pair);
//   - the result seeds an improvement search in the spirit of the
//     paper's permutation-in-range pass: pairs of identical slots with
//     disjoint guards are merged whenever the precedence DAG admits a
//     common position (no path between them), until no merge helps;
//   - a theoretical lower bound (per-instruction-class maxima) is
//     computed for pruning and reporting.
package csi

import (
	"fmt"
	"slices"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/mscerr"
)

// Thread is one MIMD state's straight-line code within a meta state,
// guarded by the pc set that enables it (normally a single pc bit).
type Thread struct {
	Guard *bitset.Set
	Code  []ir.Instr
}

// Slot is one scheduled broadcast: the instruction and the union of the
// guards of every thread that executes it. A slot that only one thread
// executes shares that Thread's Guard set, so guards are read-only.
type Slot struct {
	Guard *bitset.Set
	Instr ir.Instr
}

// Schedule is the CSI result.
type Schedule struct {
	Slots []Slot
	// Cost is the schedule's total broadcast cycles; NaiveCost is the
	// fully serialized cost (no sharing); LowerBound is the theoretical
	// minimum over all schedules.
	Cost       int
	NaiveCost  int
	LowerBound int
	// NaiveSlots is the slot count of the fully serialized schedule
	// (one broadcast per thread instruction, no sharing).
	NaiveSlots int
}

// Saved returns the cycles CSI recovered versus full serialization.
func (s *Schedule) Saved() int { return s.NaiveCost - s.Cost }

// SlotsSaved returns how many broadcast slots CSI merged away versus
// full serialization.
func (s *Schedule) SlotsSaved() int { return s.NaiveSlots - len(s.Slots) }

// Limits bounds the schedule search.
type Limits struct {
	// MaxCandidates caps the merge-candidate pairs the improvement
	// search may examine across all rounds; 0 means unlimited.
	// Exceeding it aborts with an *mscerr.BudgetError (resource
	// "csi_candidates") rather than silently truncating the search, so
	// the caller can degrade to the linear (serialized) schedule
	// explicitly.
	MaxCandidates int64
}

// Induce computes a CSI schedule for the given threads. Thread guards
// must be pairwise disjoint.
func Induce(threads []Thread) (*Schedule, error) {
	return InduceLimited(threads, Limits{})
}

// InduceLimited is Induce under a search budget.
func InduceLimited(threads []Thread, lim Limits) (*Schedule, error) {
	for i := range threads {
		if threads[i].Guard == nil || threads[i].Guard.Empty() {
			return nil, fmt.Errorf("csi: thread %d has empty guard", i)
		}
		for j := i + 1; j < len(threads); j++ {
			if threads[i].Guard.Intersects(threads[j].Guard) {
				return nil, fmt.Errorf("csi: thread guards %s and %s overlap",
					threads[i].Guard, threads[j].Guard)
			}
		}
	}

	naive, naiveSlots := 0, 0
	for _, t := range threads {
		naive += ir.CodeCost(t.Code)
		naiveSlots += len(t.Code)
	}

	code, classes := classify(threads)
	sched := &Schedule{NaiveCost: naive, NaiveSlots: naiveSlots, LowerBound: lowerBound(code, classes)}
	g := buildGraph(threads, code, classes)
	if err := g.improve(lim.MaxCandidates); err != nil {
		return nil, err
	}
	slots, err := g.linearize()
	if err != nil {
		return nil, err
	}
	sched.Slots = slots
	for _, sl := range sched.Slots {
		sched.Cost += sl.Instr.Cost()
	}
	return sched, nil
}

// classify interns each distinct instruction of the threads to a class
// ID, so alignment, merging and the lower bound compare integers
// instead of instruction structs. Instruction identity is value
// identity: two instructions are the same broadcast iff
// op/imm/type/symbol agree. Source positions are diagnostic-only and
// must not split classes, so classes[c] is class c's canonicalized
// instruction (the schedule's slots carry no positions). code[t][j] is
// the class of thread t's j-th instruction.
//
// The lookup is a linear scan of the classes: a meta state has a few
// dozen instructions, and one instruction's scan costs no more than its
// column of the alignment table.
func classify(threads []Thread) (code [][]int32, classes []ir.Instr) {
	total := 0
	for _, t := range threads {
		total += len(t.Code)
	}
	ids := make([]int32, total)
	code = make([][]int32, len(threads))
	classes = make([]ir.Instr, 0, total)
	for i, t := range threads {
		code[i], ids = ids[:len(t.Code):len(t.Code)], ids[len(t.Code):]
		for j, in := range t.Code {
			in = in.Canon()
			c := slices.Index(classes, in)
			if c < 0 {
				c = len(classes)
				classes = append(classes, in)
			}
			code[i][j] = int32(c)
		}
	}
	return code, classes
}

// lowerBound computes the classic class-count bound: for each distinct
// instruction class, at least max-per-thread occurrences must be
// broadcast no matter how threads share. code and classes are
// classify's.
func lowerBound(code [][]int32, classes []ir.Instr) int {
	// last is the thread (plus one) that cur counts, so moving to the
	// next thread resets a class lazily instead of sweeping them all.
	type count struct{ max, cur, last int }
	counts := make([]count, len(classes))
	for t, ids := range code {
		for _, id := range ids {
			c := &counts[id]
			if c.last != t+1 {
				c.last, c.cur = t+1, 0
			}
			c.cur++
			if c.cur > c.max {
				c.max = c.cur
			}
		}
	}
	lb := 0
	for id, c := range counts {
		lb += c.max * classes[id].Cost()
	}
	return lb
}

// ---- Precedence graph -------------------------------------------------------

type node struct {
	class int32 // the node's instruction class (see classify)
	// guard is the union of the guards of the threads that execute the
	// node. An unshared node holds its thread's Guard itself: guards are
	// never mutated in place, only replaced by a fresh Union.
	guard *bitset.Set
	// id is the node's index in graph.nodes (stable across merges; dead
	// nodes keep theirs), used to address reachability bitmaps.
	id int
	// seq[t] is the node's position in thread t's chain, or -1.
	seq  []int
	dead bool
}

type graph struct {
	nodes []*node
	// chains[t] lists thread t's nodes in program order.
	chains  [][]*node
	threads []Thread
	// code[t] is thread t's code as class IDs; classes maps a class ID
	// to its canonical instruction.
	code    [][]int32
	classes []ir.Instr

	// Storage carved up or reused so that a schedule allocates per meta
	// state, not per node, thread or merge round (guard unions aside):
	// slab and seqs back the nodes and their seq arrays (at most one
	// node per instruction), dp is the flat alignment table sized for the
	// largest thread's, spare the order buffer alignThread fills next,
	// reach the closure bitmaps.
	slab  []node
	seqs  []int
	dp    []int32
	spare []*node
	reach reachability
}

// buildGraph seeds the schedule by progressive alignment: thread 0's
// code becomes the initial chain; each later thread is aligned against
// the current node order with a cost-weighted LCS.
func buildGraph(threads []Thread, code [][]int32, classes []ir.Instr) *graph {
	total := 0
	for _, c := range code {
		total += len(c)
	}
	g := &graph{
		threads: threads, code: code, classes: classes,
		chains: make([][]*node, len(threads)),
		nodes:  make([]*node, 0, total),
		slab:   make([]node, 0, total),
		seqs:   make([]int, total*len(threads)),
		spare:  make([]*node, 0, total),
	}
	// Before thread t is aligned the order holds at most the
	// instructions of threads 0..t-1, which bounds that thread's table.
	dpSize, prefix := 0, 0
	for _, c := range code {
		dpSize = max(dpSize, (prefix+1)*(len(c)+1))
		prefix += len(c)
	}
	g.dp = make([]int32, dpSize)
	chains := make([]*node, total)
	order := make([]*node, 0, total)
	for t := range threads {
		n := len(code[t])
		g.chains[t], chains = chains[:0:n], chains[n:]
		order = g.alignThread(order, t)
	}
	return g
}

// alignThread merges thread t's code into the existing slot order,
// maximizing the cost of matched (shared) instructions; returns the new
// global order.
func (g *graph) alignThread(order []*node, t int) []*node {
	guard, code := g.threads[t].Guard, g.code[t]
	n, m := len(order), len(code)
	// dp[i*w+j]: best saved cost aligning order[i:] with code[j:]. Row n
	// and column m are the zero boundary; every other cell is written
	// before it is read.
	w := m + 1
	dp := g.dp[:(n+1)*w]
	clear(dp[n*w:])
	for i := n - 1; i >= 0; i-- {
		dp[i*w+m] = 0
		for j := m - 1; j >= 0; j-- {
			best := dp[(i+1)*w+j] // leave slot unshared
			if v := dp[i*w+j+1]; v > best {
				best = v // emit instruction as its own new slot
			}
			if order[i].class == code[j] {
				if v := dp[(i+1)*w+j+1] + int32(g.classes[code[j]].Cost()); v > best {
					best = v
				}
			}
			dp[i*w+j] = best
		}
	}

	out := g.spare[:0]
	chain := g.chains[t]
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && order[i].class == code[j] &&
			dp[i*w+j] == dp[(i+1)*w+j+1]+int32(g.classes[code[j]].Cost()):
			order[i].guard = order[i].guard.Union(guard)
			order[i].seq[t] = len(chain)
			chain = append(chain, order[i])
			out = append(out, order[i])
			i, j = i+1, j+1
		case i < n && (j >= m || dp[i*w+j] == dp[(i+1)*w+j]):
			out = append(out, order[i])
			i++
		default:
			nd := g.newNode(code[j], guard)
			nd.seq[t] = len(chain)
			chain = append(chain, nd)
			out = append(out, nd)
			j++
		}
	}
	g.chains[t] = chain
	g.spare = order[:0]
	return out
}

func (g *graph) newNode(class int32, guard *bitset.Set) *node {
	nt := len(g.threads)
	g.slab = append(g.slab, node{class: class, guard: guard, id: len(g.nodes), seq: g.seqs[:nt:nt]})
	g.seqs = g.seqs[nt:]
	nd := &g.slab[len(g.slab)-1]
	for i := range nd.seq {
		nd.seq[i] = -1
	}
	g.nodes = append(g.nodes, nd)
	return nd
}

// reachability is the transitive closure of the precedence DAG as one
// bitmap per node: bits[a.id*words:] has bit b.id set iff a path of
// precedence edges leads from a to b (excluding a itself). improve
// recomputes it once per merge instead of running a DFS per candidate
// pair — the old per-query DFS made each improvement round quadratic in
// pairs times linear in graph size. The bitmaps live in one flat array
// the graph reuses across rounds.
type reachability struct {
	words int
	bits  []uint64
	done  []bool
}

func (g *graph) closure() *reachability {
	n := len(g.nodes)
	r := &g.reach
	r.words = (n + 63) / 64
	if need := n * r.words; cap(r.bits) < need {
		r.bits = make([]uint64, need)
	} else {
		r.bits = r.bits[:need]
		clear(r.bits)
	}
	if len(r.done) != n {
		r.done = make([]bool, n)
	} else {
		clear(r.done)
	}
	var dfs func(nd *node) []uint64
	dfs = func(nd *node) []uint64 {
		b := r.bits[nd.id*r.words : (nd.id+1)*r.words]
		if r.done[nd.id] {
			return b
		}
		r.done[nd.id] = true // set before recursing; sound on a DAG
		for t, pos := range nd.seq {
			if pos < 0 || pos+1 >= len(g.chains[t]) {
				continue
			}
			s := g.chains[t][pos+1] // nd's successor in thread t
			b[s.id/64] |= 1 << (uint(s.id) % 64)
			for i, w := range dfs(s) {
				b[i] |= w
			}
		}
		return b
	}
	for _, nd := range g.nodes {
		if !nd.dead {
			dfs(nd)
		}
	}
	return r
}

// reaches reports whether a path of precedence edges leads from a to b
// (a == b counts as reached, matching the old DFS helper).
func (r *reachability) reaches(a, b *node) bool {
	if a == b {
		return true
	}
	return r.bits[a.id*r.words+b.id/64]>>(uint(b.id)%64)&1 == 1
}

// improve is the permutation-in-range search: repeatedly merge the most
// expensive pair of identical, guard-disjoint, order-independent slots.
// maxCandidates (0 = unlimited) bounds the total pairs examined; the
// overrun is a typed budget error so callers can fall back to the
// linear schedule deliberately.
func (g *graph) improve(maxCandidates int64) error {
	var candidates int64
	for {
		reach := g.closure()
		var bestA, bestB *node
		bestCost := 0
		for i, a := range g.nodes {
			if a.dead {
				continue
			}
			for _, b := range g.nodes[i+1:] {
				if b.dead || a.class != b.class || g.classes[a.class].Cost() <= bestCost {
					continue
				}
				if candidates++; maxCandidates > 0 && candidates > maxCandidates {
					return &mscerr.BudgetError{
						Phase: "csi", Resource: "csi_candidates",
						Limit: maxCandidates, Used: candidates,
					}
				}
				if a.guard.Intersects(b.guard) {
					continue
				}
				if reach.reaches(a, b) || reach.reaches(b, a) {
					continue
				}
				bestA, bestB = a, b
				bestCost = g.classes[a.class].Cost()
			}
		}
		if bestA == nil {
			return nil
		}
		// Merge bestB into bestA. The merge changes the precedence
		// relation (bestA inherits bestB's chain positions), so the
		// closure is recomputed on the next round.
		bestA.guard = bestA.guard.Union(bestB.guard)
		for t, pos := range bestB.seq {
			if pos >= 0 {
				bestA.seq[t] = pos
				g.chains[t][pos] = bestA
			}
		}
		bestB.dead = true
	}
}

// linearize topologically sorts the precedence DAG into the final slot
// order, preferring earlier positions in lower-numbered threads for
// determinism. A precedence cycle (impossible on a correct merge) is
// reported as an error rather than a panic so the pipeline stays up on
// the malformed meta state.
func (g *graph) linearize() ([]Slot, error) {
	next := make([]int, len(g.threads)) // next unscheduled position per chain
	live := 0
	for _, nd := range g.nodes {
		if !nd.dead {
			live++
		}
	}
	slots := make([]Slot, 0, live)
	scheduled := make([]bool, len(g.nodes)) // by node id
	for {
		var pick *node
		for t := range g.chains {
			for next[t] < len(g.chains[t]) && scheduled[g.chains[t][next[t]].id] {
				next[t]++
			}
			if next[t] >= len(g.chains[t]) {
				continue
			}
			cand := g.chains[t][next[t]]
			// cand is ready iff it is the next node in every chain it
			// belongs to.
			ready := true
			for ot, pos := range cand.seq {
				if pos >= 0 && (pos != next[ot] && !allScheduledBefore(g.chains[ot], pos, scheduled)) {
					ready = false
					break
				}
			}
			if ready && pick == nil {
				pick = cand
			}
		}
		if pick == nil {
			// Either done or stuck; stuck cannot happen on a DAG.
			allDone := true
			for t := range g.chains {
				if next[t] < len(g.chains[t]) {
					allDone = false
					break
				}
			}
			if allDone {
				return slots, nil
			}
			return nil, fmt.Errorf("csi: precedence cycle in linearize (merge bug; %d of %d nodes scheduled)",
				len(slots), len(g.nodes))
		}
		scheduled[pick.id] = true
		slots = append(slots, Slot{Guard: pick.guard, Instr: g.classes[pick.class]})
	}
}

// allScheduledBefore reports whether every node before pos in chain is
// already scheduled.
func allScheduledBefore(chain []*node, pos int, scheduled []bool) bool {
	for i := 0; i < pos; i++ {
		if !scheduled[chain[i].id] {
			return false
		}
	}
	return true
}
