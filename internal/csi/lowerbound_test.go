package csi

import (
	"math/rand"
	"testing"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// lowerBoundMapRef is a frozen copy of the map-keyed lowerBound that
// reset every class for every thread; the class-ID version must agree
// with it.
func lowerBoundMapRef(threads []Thread) int {
	type class struct{ max, cur int }
	classes := make(map[ir.Instr]*class)
	for _, t := range threads {
		for k := range classes {
			classes[k].cur = 0
		}
		for _, in := range t.Code {
			c := classes[in]
			if c == nil {
				c = &class{}
				classes[in] = c
			}
			c.cur++
			if c.cur > c.max {
				c.max = c.cur
			}
		}
	}
	lb := 0
	for in, c := range classes {
		lb += c.max * in.Cost()
	}
	return lb
}

// TestLowerBoundMatchesMapReference runs both bounds on seeded random
// threads whose instructions repeat within and across threads and
// differ in immediates, symbols and source positions.
func TestLowerBoundMatchesMapReference(t *testing.T) {
	ops := []ir.Instr{
		{Op: ir.PushC, Imm: 1}, {Op: ir.PushC, Imm: 2}, {Op: ir.LdLocal, Sym: "x"},
		{Op: ir.LdLocal, Sym: "y"}, {Op: ir.Add}, {Op: ir.Mul}, {Op: ir.Div},
		{Op: ir.StLocal, Sym: "x"}, {Op: ir.Dup}, {Op: ir.Pop, Imm: 1},
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		// The reference ran on canonicalized code, as InduceLimited
		// passed it.
		threads := make([]Thread, 1+r.Intn(6))
		canon := make([]Thread, len(threads))
		for i := range threads {
			code := make([]ir.Instr, r.Intn(16))
			canonCode := make([]ir.Instr, len(code))
			for j := range code {
				code[j] = ops[r.Intn(len(ops))]
				canonCode[j] = code[j]
				code[j].Pos = ir.Pos{Line: 1 + r.Intn(3)}
			}
			threads[i] = Thread{Guard: bitset.Of(i), Code: code}
			canon[i] = Thread{Guard: bitset.Of(i), Code: canonCode}
		}
		code, classes := classify(threads)
		if got, want := lowerBound(code, classes), lowerBoundMapRef(canon); got != want {
			t.Fatalf("trial %d: lowerBound = %d, reference %d", trial, got, want)
		}
	}
}
