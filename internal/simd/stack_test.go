package simd_test

import (
	"fmt"
	"runtime"
	"testing"

	"msc"
	"msc/internal/ir"
	"msc/internal/simd"
)

// TestStackTilesPerChunk pins that stack memory follows each chunk's
// own high-water depth. At width 65,536 only PEs 0-63, all in the first
// chunk, recurse depth calls deep; the rest make one call. Machine-wide
// depth planes would hold depth return-stack words for every PE; the
// whole run must allocate less than a quarter of that, N·depth/4 words.
func TestStackTilesPerChunk(t *testing.T) {
	const n, depth = 65536, 500
	src := fmt.Sprintf(`poly int r;
int down(int k)
{
    if (k <= 0) { return 0; }
    return down(k - 1) + 1;
}
void main()
{
    poly int d;
    d = 1;
    if (iproc < 64) { d = %d; }
    r = down(d);
    return;
}
`, depth)
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slot, ok := c.Slot("r")
	if !ok {
		t.Fatal("no slot for r")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := simd.Run(c.Program, simd.Config{N: n, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range []int{0, 63, 64, n - 1} {
		want := 1
		if pe < 64 {
			want = depth
		}
		if got := res.Mem[pe][slot]; got != ir.Word(want) {
			t.Fatalf("PE %d: r = %d, want %d", pe, got, want)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if bound := uint64(n * depth / 4 * 8); alloc >= bound {
		t.Fatalf("run allocated %d bytes, want < %d (N·depth/4 words)", alloc, bound)
	}
	t.Logf("run allocated %.1f MB (bound %.1f MB)", float64(alloc)/1e6, float64(n*depth/4*8)/1e6)
}
