package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if !approx(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.CV() != 0 {
		t.Fatal("empty summary should report zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Var() != 0 {
		t.Fatalf("single-value summary: mean=%v var=%v", s.Mean(), s.Var())
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-value min/max wrong")
	}
}

func TestSummaryCV(t *testing.T) {
	var s Summary
	s.AddAll([]float64{10, 10, 10})
	if s.CV() != 0 {
		t.Fatalf("CV of constants = %v, want 0", s.CV())
	}
	var z Summary
	z.AddAll([]float64{-1, 1})
	if z.CV() != 0 {
		t.Fatalf("CV with zero mean = %v, want 0 (guarded)", z.CV())
	}
}

func TestSummaryNegativeMeanCV(t *testing.T) {
	var s Summary
	s.AddAll([]float64{-10, -20, -30})
	if s.CV() < 0 {
		t.Fatalf("CV should use |mean|, got %v", s.CV())
	}
}

func TestSliceHelpersMatchSummary(t *testing.T) {
	xs := []float64{1.5, -2, 7, 0, 3.25, 8, -1}
	var s Summary
	s.AddAll(xs)
	if !approx(Mean(xs), s.Mean(), 1e-12) {
		t.Fatalf("Mean mismatch: %v vs %v", Mean(xs), s.Mean())
	}
	if !approx(Variance(xs), s.Var(), 1e-9) {
		t.Fatalf("Variance mismatch: %v vs %v", Variance(xs), s.Var())
	}
	if !approx(Std(xs), s.Std(), 1e-9) {
		t.Fatalf("Std mismatch: %v vs %v", Std(xs), s.Std())
	}
}

func TestSliceHelpersEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-9) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("percentile of empty slice should be 0")
	}
	if Percentile(xs, -5) != 10 || Percentile(xs, 200) != 50 {
		t.Fatal("out-of-range p should clamp")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

// Property: streaming variance is always non-negative and the mean lies in
// [min, max].
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		if s.Var() < -1e-6 {
			return false
		}
		return s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	g := NewRNG(61)
	for trial := 0; trial < 50; trial++ {
		n := 1 + g.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.Uniform(-100, 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

func TestEWMAMatchesPaperRecurrence(t *testing.T) {
	e := NewEWMA(0.3)
	e.Observe(100) // S_1 = Y_1
	if e.Value() != 100 {
		t.Fatalf("first observation should initialize: %v", e.Value())
	}
	got := e.Observe(200)
	want := 0.3*200 + 0.7*100
	if !approx(got, want, 1e-12) {
		t.Fatalf("S_2 = %v, want %v", got, want)
	}
	got = e.Observe(50)
	want = 0.3*50 + 0.7*want
	if !approx(got, want, 1e-12) {
		t.Fatalf("S_3 = %v, want %v", got, want)
	}
	if e.N() != 3 {
		t.Fatalf("N = %d, want 3", e.N())
	}
}

func TestEWMAAlphaOneTracksLastValue(t *testing.T) {
	e := NewEWMA(1)
	e.Observe(5)
	e.Observe(9)
	if e.Value() != 9 {
		t.Fatalf("alpha=1 should track last observation, got %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// Property: EWMA output always lies within the [min,max] envelope of its
// inputs.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		e := NewEWMA(0.25)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			v := e.Observe(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
