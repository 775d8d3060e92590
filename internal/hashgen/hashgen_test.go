package hashgen

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestListing5Keys(t *testing.T) {
	// The switch at the end of Listing 5's ms_0 dispatches on aggregates
	// BIT(2), BIT(6), and BIT(2)|BIT(6).
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6}
	h, err := Find(keys)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		idx := h.Index(k)
		if idx > h.Mask {
			t.Fatalf("index %d exceeds mask %d", idx, h.Mask)
		}
		if seen[idx] {
			t.Fatalf("collision at %d", idx)
		}
		seen[idx] = true
	}
	// Three keys fit a four-entry table: density >= 0.75.
	if d := TableDensity(h, len(keys)); d < 0.75 {
		t.Fatalf("table density = %.2f, want >= 0.75 (mask %#x)", d, h.Mask)
	}
}

func TestFiveWayFinalSwitch(t *testing.T) {
	// ms_2_6's five-way switch: {2,6}, {9}, {6,9}, {2,9}, {2,6,9}.
	bit := func(is ...int) (w uint64) {
		for _, i := range is {
			w |= 1 << uint(i)
		}
		return
	}
	keys := []uint64{bit(2, 6), bit(9), bit(6, 9), bit(2, 9), bit(2, 6, 9)}
	h, err := Find(keys)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		if idx := h.Index(k); seen[idx] {
			t.Fatalf("collision")
		} else {
			seen[idx] = true
		}
	}
	if h.Mask+1 > 16 {
		t.Fatalf("table size %d for 5 keys, want <= 16", h.Mask+1)
	}
}

func TestSingleKey(t *testing.T) {
	h, err := Find([]uint64{0xdeadbeef})
	if err != nil {
		t.Fatal(err)
	}
	if h.Mask != 0 || h.Index(0xdeadbeef) != 0 {
		t.Fatalf("single key should map to a one-entry table, got mask %d", h.Mask)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Find(nil); err == nil {
		t.Fatal("empty key set accepted")
	}
	if _, err := Find([]uint64{5, 5}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestQuickPerfectOnRandomKeySets(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		r := rand.New(rand.NewSource(seed))
		keys := make([]uint64, 0, n)
		seen := map[uint64]bool{}
		for len(keys) < n {
			// Sparse aggregate-like keys: a few set bits.
			var w uint64
			for i := 0; i < 3; i++ {
				w |= 1 << uint(r.Intn(32))
			}
			if w != 0 && !seen[w] {
				seen[w] = true
				keys = append(keys, w)
			}
		}
		h, err := Find(keys)
		if err != nil {
			return false
		}
		idx := map[uint64]bool{}
		for _, k := range keys {
			i := h.Index(k)
			if i > h.Mask || idx[i] {
				return false
			}
			idx[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheaperFormsPreferred(t *testing.T) {
	// Keys already distinct under a plain shift should get the cheapest
	// form (cost 2), never the multiplicative fallback.
	h, err := Find([]uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.EvalCost != costShift {
		t.Fatalf("eval cost = %d, want %d (plain shift)", h.EvalCost, costShift)
	}
}

func TestLinearDispatchCostGrows(t *testing.T) {
	if LinearDispatchCost(1) != 2 {
		t.Fatalf("n=1 cost = %d", LinearDispatchCost(1))
	}
	prev := 0
	for n := 2; n <= 64; n *= 2 {
		c := LinearDispatchCost(n)
		if c <= prev {
			t.Fatalf("cost not increasing at n=%d", n)
		}
		prev = c
	}
}

func TestHashStringForm(t *testing.T) {
	h, err := Find([]uint64{1 << 2, 1 << 6, 1<<2 | 1<<6})
	if err != nil {
		t.Fatal(err)
	}
	if s := h.String(); s == "" {
		t.Fatal("empty hash description")
	}
}

func BenchmarkFindSmall(b *testing.B) {
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6, 1 << 9, 1<<2 | 1<<9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Find(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWide searches 24–32-key dispatches, whose tables have
// 64 entries or more.
func BenchmarkSearchWide(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	var sets [][]uint64
	for n := 24; n <= 32; n++ {
		sets = append(sets, randomKeys(r, n))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Find(sets[i%len(sets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashDispatch(b *testing.B) {
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6, 1 << 9, 1<<2 | 1<<9}
	h, err := Find(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Index(keys[i%len(keys)])
	}
	_ = sink
}
