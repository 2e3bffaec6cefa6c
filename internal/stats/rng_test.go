package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds matched on %d/100 draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(3)
	child := parent.Fork()
	// Child must be deterministic given the parent seed.
	parent2 := NewRNG(3)
	child2 := parent2.Fork()
	for i := 0; i < 50; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatalf("forked stream not reproducible at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) = %v out of range", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(13)
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(g.Exponential(4))
	}
	if math.Abs(s.Mean()-4) > 0.1 {
		t.Fatalf("Exponential mean = %v, want ≈4", s.Mean())
	}
	if g.Exponential(0) != 0 || g.Exponential(-1) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestPoissonSmallLambdaMoments(t *testing.T) {
	g := NewRNG(17)
	lambda := 15.0 // the paper's batch size parameter
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(float64(g.Poisson(lambda)))
	}
	if math.Abs(s.Mean()-lambda) > 0.15 {
		t.Fatalf("Poisson(15) mean = %v, want ≈15", s.Mean())
	}
	if math.Abs(s.Var()-lambda) > 0.8 {
		t.Fatalf("Poisson(15) var = %v, want ≈15", s.Var())
	}
}

func TestPoissonLargeLambdaMoments(t *testing.T) {
	g := NewRNG(19)
	lambda := 200.0 // exercises the PTRS path
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(float64(g.Poisson(lambda)))
	}
	if math.Abs(s.Mean()-lambda) > 1.0 {
		t.Fatalf("Poisson(200) mean = %v, want ≈200", s.Mean())
	}
	if math.Abs(s.Var()-lambda) > 10 {
		t.Fatalf("Poisson(200) var = %v, want ≈200", s.Var())
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	g := NewRNG(23)
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Fatal("Poisson with non-positive lambda should be 0")
	}
	for i := 0; i < 1000; i++ {
		if g.Poisson(0.001) < 0 {
			t.Fatal("Poisson returned negative value")
		}
	}
}

func TestPoissonNonFinitePanics(t *testing.T) {
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "not finite") {
					t.Errorf("Poisson(%v) recovered %q, want a not-finite panic", lambda, msg)
				}
			}()
			NewRNG(1).Poisson(lambda)
		}()
	}
}

func TestTruncNormalBounds(t *testing.T) {
	g := NewRNG(29)
	for i := 0; i < 2000; i++ {
		v := g.TruncNormal(10, 50, 0, 20)
		if v < 0 || v > 20 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
	// Degenerate: mean far outside bounds still lands inside.
	v := g.TruncNormal(1000, 0.001, 0, 1)
	if v < 0 || v > 1 {
		t.Fatalf("TruncNormal clamp failed: %v", v)
	}
}

func TestTruncNormalSwappedBounds(t *testing.T) {
	g := NewRNG(31)
	v := g.TruncNormal(5, 1, 10, 0) // swapped on purpose
	if v < 0 || v > 10 {
		t.Fatalf("TruncNormal with swapped bounds = %v", v)
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	g := NewRNG(37)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(g.LogNormalMeanCV(250, 0.3))
	}
	if math.Abs(s.Mean()-250) > 5 {
		t.Fatalf("LogNormalMeanCV mean = %v, want ≈250", s.Mean())
	}
	if math.Abs(s.CV()-0.3) > 0.02 {
		t.Fatalf("LogNormalMeanCV cv = %v, want ≈0.3", s.CV())
	}
	if g.LogNormalMeanCV(0, 0.3) != 0 {
		t.Fatal("zero mean should yield 0")
	}
	if v := g.LogNormalMeanCV(100, 0); v != 100 {
		t.Fatalf("zero CV should return the mean, got %v", v)
	}
}

// Property: Poisson never returns negative, over a range of lambdas.
func TestPoissonNonNegativeProperty(t *testing.T) {
	g := NewRNG(47)
	f := func(raw uint16) bool {
		lambda := float64(raw%2000)/10 + 0.01 // 0.01..200
		return g.Poisson(lambda) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uniform(lo,hi) is always within [lo,hi).
func TestUniformRangeProperty(t *testing.T) {
	g := NewRNG(53)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e150 || math.Abs(b) > 1e150 {
			return true // hi-lo would overflow; not a meaningful input
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true
		}
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
