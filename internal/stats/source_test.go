package stats

import (
	"math"
	"math/rand"
	"testing"
)

// oracleRNG is an RNG whose distributions run over math/rand's own source:
// the reference every draw of NewRNG must equal.
func oracleRNG(seed int64) *RNG {
	o := new(RNG)
	o.r = *rand.New(rand.NewSource(seed))
	return o
}

// edgeSeeds cover the seed reduction: zero and its substitute, the
// modulus and its neighbours, negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	int32max - 1, int32max, int32max + 1, -int32max, -(int32max + 1),
	2 * int32max, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// compareDraws makes n calls, cycling through every RNG method, on g and
// on the oracle o, then forks each, and reports the first call that
// differs.
func compareDraws(t *testing.T, seed int64, g, o *RNG, n int) {
	t.Helper()
	same := func(i int, what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d draw %d %s: got %v, math/rand %v", seed, i, what, a, b)
		}
	}
	for i := 0; i < n; i++ {
		switch i % 14 {
		case 0:
			if a, b := g.r.Uint64(), o.r.Uint64(); a != b {
				t.Fatalf("seed %d draw %d Uint64: got %#x, math/rand %#x", seed, i, a, b)
			}
		case 1:
			if a, b := g.r.Int63(), o.r.Int63(); a != b {
				t.Fatalf("seed %d draw %d Int63: got %d, math/rand %d", seed, i, a, b)
			}
		case 2:
			same(i, "Float64", g.Float64(), o.Float64())
		case 3:
			n := 1 + i%97
			same(i, "Intn", float64(g.Intn(n)), float64(o.Intn(n)))
		case 4:
			same(i, "Uniform", g.Uniform(-3, 11), o.Uniform(-3, 11))
		case 5:
			same(i, "Exponential", g.Exponential(4), o.Exponential(4))
		case 6:
			same(i, "Poisson small", float64(g.Poisson(15)), float64(o.Poisson(15)))
		case 7:
			same(i, "Poisson large", float64(g.Poisson(200)), float64(o.Poisson(200)))
		case 8:
			same(i, "Normal", g.Normal(1, 2), o.Normal(1, 2))
		case 9:
			same(i, "TruncNormal", g.TruncNormal(300, 150, 72, 1200), o.TruncNormal(300, 150, 72, 1200))
		case 10:
			same(i, "LogNormal", g.LogNormal(0.5, 0.3), o.LogNormal(0.5, 0.3))
		case 11:
			same(i, "LogNormalMeanCV", g.LogNormalMeanCV(250, 0.3), o.LogNormalMeanCV(250, 0.3))
		case 12:
			a, b := g.Perm(9), o.Perm(9)
			for k := range a {
				same(i, "Perm", float64(a[k]), float64(b[k]))
			}
		case 13:
			var a, b [7]int
			for k := range a {
				a[k], b[k] = k, k
			}
			g.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
			o.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
			if a != b {
				t.Fatalf("seed %d draw %d Shuffle: got %v, math/rand %v", seed, i, a, b)
			}
		}
	}
	// A fork is seeded from the parent's next draw; ForkInto must seed the
	// child Fork would.
	var fi RNG
	g.ForkInto(&fi)
	same(n, "Fork", fi.Float64(), o.Fork().Float64())
}

// TestSourceMatchesMathRand pins every draw of every RNG method to
// math/rand's, over the edge seeds and 2,000 random ones. Odd seeds reuse
// one generator through Reset, so a reseeded generator is checked against
// a fresh math/rand source too.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20100913))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	reused := NewRNG(99)
	for i, seed := range seeds {
		g := reused
		if i%2 == 0 {
			g = NewRNG(seed)
		} else {
			g.Reset(seed)
		}
		compareDraws(t, seed, g, oracleRNG(seed), draws)
	}
}

// FuzzSourceMatchesMathRand checks the raw source for any seed: the first
// 1,300 draws, past two wraps of the 607-word state, equal math/rand's,
// and reseeding a used generator reproduces them.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		const draws = 1300
		g := NewRNG(seed)
		want := make([]uint64, draws)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := range want {
			want[i] = ref.Uint64()
			if got := g.r.Uint64(); got != want[i] {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, i, got, want[i])
			}
		}
		g.Reset(seed)
		for i := range want {
			if got := g.r.Uint64(); got != want[i] {
				t.Fatalf("seed %d draw %d after Reset: got %#x, fresh %#x", seed, i, got, want[i])
			}
		}
	})
}

func TestResetAndForkIntoAllocationFree(t *testing.T) {
	g := new(RNG) // Reset must also seed a zero RNG
	dst := new(RNG)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		g.Reset(seed)
	}); n != 0 {
		t.Errorf("Reset allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.ForkInto(dst) }); n != 0 {
		t.Errorf("ForkInto allocates %v times per call, want 0", n)
	}
}
