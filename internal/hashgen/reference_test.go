package hashgen

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"msc/internal/simd"
)

// searchMapRef is a frozen copy of the map-based Search that heap-
// allocated every candidate and, for tables of 64 or more entries, a
// map per candidate. The differential test below holds the bitmap
// Search to its winners and its candidate counts.
func searchMapRef(keys []uint64) (*simd.HashFn, int, error) {
	tried := 0
	if len(keys) == 0 {
		return nil, tried, fmt.Errorf("hashgen: no keys")
	}
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, tried, fmt.Errorf("hashgen: duplicate key %#x", k)
		}
		seen[k] = true
	}

	minBits := bits.Len(uint(len(keys) - 1))
	if len(keys) == 1 {
		minBits = 0
	}
	for b := minBits; b <= minBits+4 && b <= 16; b++ {
		mask := uint64(1)<<uint(b) - 1
		for a := 0; a < 64; a++ {
			h := &simd.HashFn{ShiftA: a, Mask: mask, EvalCost: costShift}
			tried++
			if perfectMapRef(h, keys) {
				return h, tried, nil
			}
		}
		for a := 0; a < 64; a++ {
			for c := a + 1; c < 64; c++ {
				h := &simd.HashFn{ShiftA: a, ShiftB: c, UseB: true, Mask: mask, EvalCost: costXor}
				tried++
				if perfectMapRef(h, keys) {
					return h, tried, nil
				}
			}
		}
		for _, m := range multipliers {
			for s := 64 - b; s >= 32; s -= 4 {
				h := &simd.HashFn{
					ShiftA: 64, UseMul: true, Mul: m, ShiftM: s,
					Mask: mask, EvalCost: costMul,
				}
				tried++
				if perfectMapRef(h, keys) {
					return h, tried, nil
				}
			}
		}
	}
	return nil, tried, fmt.Errorf("hashgen: no perfect hash found for %d keys within table size 2^%d",
		len(keys), minBits+4)
}

func perfectMapRef(h *simd.HashFn, keys []uint64) bool {
	var small [64]bool
	var used map[uint64]bool
	if h.Mask >= uint64(len(small)) {
		used = make(map[uint64]bool, len(keys))
	}
	for _, k := range keys {
		idx := h.Index(k)
		if used != nil {
			if used[idx] {
				return false
			}
			used[idx] = true
		} else {
			if small[idx] {
				return false
			}
			small[idx] = true
		}
	}
	return true
}

// randomKeys draws n distinct aggregate-like apc words: each sets a few
// of the low 32 pc bits, as meta-state dispatch keys do.
func randomKeys(r *rand.Rand, n int) []uint64 {
	keys := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for len(keys) < n {
		var w uint64
		for i := 1 + r.Intn(4); i > 0; i-- {
			w |= 1 << uint(r.Intn(32))
		}
		if !seen[w] {
			seen[w] = true
			keys = append(keys, w)
		}
	}
	return keys
}

// TestSearchMatchesMapReference: over seeded random key sets of 1–32
// keys (17–32 keys search tables of 64 entries and more, the path that
// used a map per candidate), Search returns the reference's function
// and candidate count.
func TestSearchMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	wide := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%32
		keys := randomKeys(r, n)
		got, gotTried, gotErr := Search(keys)
		want, wantTried, wantErr := searchMapRef(keys)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (%d keys): err = %v, reference err = %v", trial, n, gotErr, wantErr)
		}
		if gotTried != wantTried {
			t.Fatalf("trial %d (%d keys): tried = %d, reference %d", trial, n, gotTried, wantTried)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d keys): hash %+v, reference %+v", trial, n, *got, *want)
		}
		if gotErr == nil && got.Mask >= 64 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no trial reached a table of 64 entries or more")
	}
	t.Logf("%d of 400 winners use tables of 64 entries or more", wide)
}

// TestSearchAllocsConstant: a Search allocates a fixed handful of times
// (the duplicate check's sorted copy, the collision bitmap, the winner)
// however many candidates it tries.
func TestSearchAllocsConstant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 12, 24, 32} {
		keys := randomKeys(r, n)
		_, tried, err := Search(keys)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := Search(keys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%d keys (%d candidates): %.0f allocations per Search, want <= 3", n, tried, allocs)
		}
	}
}

// TestSearchCappedMessage: when minBits+4 passes the 2^16 cap, the
// failure reports the largest table actually searched.
func TestSearchCappedMessage(t *testing.T) {
	// 4,097 random 64-bit keys need 2^13 slots; the search stops at
	// 2^16 (not 2^17), where about 128 collisions are expected, so no
	// candidate is perfect.
	r := rand.New(rand.NewSource(7))
	keys := make([]uint64, 0, 4097)
	seen := map[uint64]bool{}
	for len(keys) < cap(keys) {
		if k := r.Uint64(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	_, _, err := Search(keys)
	if err == nil {
		t.Fatal("found a perfect hash for 4,097 random keys")
	}
	if msg := err.Error(); !strings.Contains(msg, "2^16") || strings.Contains(msg, "2^17") {
		t.Fatalf("error %q should name 2^16, the largest table searched", msg)
	}
}
