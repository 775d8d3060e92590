// Package hashgen searches for customized hash functions that map a
// sparse set of aggregate-pc words to small, distinct indices, so that
// the N-way branch at the end of each meta state compiles to a dense
// jump table ("Coding Multiway Branches Using Customized Hash
// Functions", Dietz TR-EE 92-31; §3.2 of the MSC paper — e.g. the
// ((apc >> 6) ^ apc) & 15 switch of Listing 5).
//
// The search tries function forms in increasing evaluation-cost order
// within increasing table sizes, so the first hit is the cheapest
// perfect hash with the densest table:
//
//  1. (w >> a) & mask                      — 2 cycles
//  2. ((w >> a) ^ (w >> b)) & mask         — 4 cycles
//  3. ((w*M) >> s) & mask (Fibonacci mul)  — 8 cycles
package hashgen

import (
	"fmt"
	"math/bits"
	"slices"

	"msc/internal/simd"
)

// Costs of the candidate forms in control-unit cycles.
const (
	costShift = 2
	costXor   = 4
	costMul   = 8
)

// fibonacci multipliers tried for the multiplicative form (2^64/φ and a
// few standard mixers).
var multipliers = []uint64{
	0x9e3779b97f4a7c15,
	0xff51afd7ed558ccd,
	0xc4ceb9fe1a85ec53,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
}

// Find returns the cheapest perfect hash over keys from the candidate
// family. Keys must be non-empty and distinct.
func Find(keys []uint64) (*simd.HashFn, error) {
	h, _, err := Search(keys)
	return h, err
}

// maxTableBits caps the jump table at 2^16 entries.
const maxTableBits = 16

// Search is Find plus observability: it also reports how many candidate
// functions were evaluated before the winner (or exhaustion), the
// search-effort number the compile metrics record.
//
// Candidates are evaluated as one stack value against one reused
// bitmap, so the search allocates a fixed handful of times however many
// candidates it tries; only the winner is copied to the heap.
func Search(keys []uint64) (*simd.HashFn, int, error) {
	tried := 0
	if len(keys) == 0 {
		return nil, tried, fmt.Errorf("hashgen: no keys")
	}
	if k, dup := duplicate(keys); dup {
		return nil, tried, fmt.Errorf("hashgen: duplicate key %#x", k)
	}

	minBits := bits.Len(uint(len(keys) - 1))
	if len(keys) == 1 {
		minBits = 0
	}
	maxBits := minBits + 4
	if maxBits > maxTableBits {
		maxBits = maxTableBits
	}
	// used is the collision bitmap for tables wider than one word; each
	// miss clears only the bits it set, so it stays zeroed between
	// candidates.
	var used []uint64
	if maxBits > 6 {
		used = make([]uint64, 1<<uint(maxBits-6))
	}
	for b := minBits; b <= maxBits; b++ {
		mask := uint64(1)<<uint(b) - 1

		// Each form sets its fixed fields once and then only the swept
		// ones per candidate.

		// Form 1: single shift.
		h := simd.HashFn{Mask: mask, EvalCost: costShift}
		for a := 0; a < 64; a++ {
			h.ShiftA = a
			tried++
			if perfect(&h, keys, used) {
				return winner(h), tried, nil
			}
		}
		// Form 2: xor of two shifts (the Listing 5 shape).
		h = simd.HashFn{UseB: true, Mask: mask, EvalCost: costXor}
		for a := 0; a < 64; a++ {
			for c := a + 1; c < 64; c++ {
				h.ShiftA, h.ShiftB = a, c
				tried++
				if perfect(&h, keys, used) {
					return winner(h), tried, nil
				}
			}
		}
		// Form 3: multiplicative. ShiftA=64 zeroes the plain term.
		h = simd.HashFn{ShiftA: 64, UseMul: true, Mask: mask, EvalCost: costMul}
		for _, m := range multipliers {
			for s := 64 - b; s >= 32; s -= 4 {
				h.Mul, h.ShiftM = m, s
				tried++
				if perfect(&h, keys, used) {
					return winner(h), tried, nil
				}
			}
		}
	}
	return nil, tried, fmt.Errorf("hashgen: no perfect hash found for %d keys within table size 2^%d",
		len(keys), maxBits)
}

// winner copies the successful candidate to the heap.
func winner(h simd.HashFn) *simd.HashFn {
	w := new(simd.HashFn)
	*w = h
	return w
}

// duplicate returns a key that occurs more than once in keys, if any.
func duplicate(keys []uint64) (uint64, bool) {
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return 0, false
}

// perfect reports whether h maps every key to a distinct index. Tables
// of up to 64 entries use a one-word bitmap in a register; wider ones
// use used, a zeroed bitmap of at least h.Mask+1 bits, which perfect
// returns zeroed again.
func perfect(h *simd.HashFn, keys []uint64, used []uint64) bool {
	if h.Mask < 64 {
		var small uint64
		for _, k := range keys {
			bit := uint64(1) << h.Index(k)
			if small&bit != 0 {
				return false
			}
			small |= bit
		}
		return true
	}
	ok, n := true, len(keys)
	for i, k := range keys {
		idx := h.Index(k)
		w, bit := idx/64, uint64(1)<<(idx%64)
		if used[w]&bit != 0 {
			ok, n = false, i
			break
		}
		used[w] |= bit
	}
	for _, k := range keys[:n] {
		idx := h.Index(k)
		used[idx/64] &^= 1 << (idx % 64)
	}
	return ok
}

// TableDensity reports how full the jump table is: keys / table size.
func TableDensity(h *simd.HashFn, nkeys int) float64 {
	return float64(nkeys) / float64(h.Mask+1)
}

// LinearDispatchCost models the naive alternative the hash replaces:
// a chain of compare-and-branch over n keys costs 2 cycles per probe
// and on average probes half the chain.
func LinearDispatchCost(n int) int {
	if n <= 1 {
		return 2
	}
	return 2 * ((n + 1) / 2)
}
