package msc_test

import (
	"os"
	"testing"

	"msc"
	"msc/internal/progen"
)

// TestLargeFingerprintGoldens is the byte-identity gate at scale: two
// uncompressed automata with a thousand meta states and more, compiled
// with CSI and customized hashing, where the CSI alignment and the hash
// search do real work. The goldens pin the whole compile result —
// graph, automaton, CSI schedules and hash tables — so a change to the
// coding layer that moves any output byte fails here.
func TestLargeFingerprintGoldens(t *testing.T) {
	if raceEnabled {
		t.Skip("thousands of CSI schedules and hash searches are too slow under the race detector")
	}
	primes, err := os.ReadFile("examples/mc/primes.mc")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		src    string
		states int
		tables int // dispatches encoded through a customized hash
		want   string
	}{
		{"primes", string(primes), 1024, 897,
			"236ce0886f27913b3f64e8960bba4b2e469ab6b8190bc7ce5197d8a20a65c0d8"},
		{"progen-40", progen.Source(progen.Params{Seed: 40, Barriers: true}), 1853, 1630,
			"bf243b56bfb5f3935338db85ac647db01f1ed258ddd2ebb1ee0229b3de2d3cb0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := msc.Compile(tc.src, msc.Config{CSI: true, Hash: true})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(c.Automaton.States); n != tc.states {
				t.Errorf("%d meta states, want %d", n, tc.states)
			}
			tables := 0
			for _, mc := range c.Program.Meta {
				if mc.Trans.Hash != nil {
					tables++
				}
			}
			if tables != tc.tables {
				t.Errorf("%d hash tables, want %d", tables, tc.tables)
			}
			if fp := c.Fingerprint(); fp != tc.want {
				t.Errorf("fingerprint %s, want %s", fp, tc.want)
			}
		})
	}
}
