package qrsm

import (
	"errors"
	"math"
	"testing"

	"cloudburst/internal/linalg"
	"cloudburst/internal/stats"
)

// basisInto expands a standardized feature vector into the quadratic basis,
// writing into out (length BasisSize(len(z))): intercept, linear terms,
// pairwise interactions, squares. It is the oracle for the order in which
// eval adds up terms and designInto lays out columns.
func basisInto(z, out []float64) {
	dim := len(z)
	out[0] = 1
	copy(out[1:1+dim], z)
	k := 1 + dim
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			out[k] = z[i] * z[j]
			k++
		}
	}
	for i := 0; i < dim; i++ {
		out[k] = z[i] * z[i]
		k++
	}
}

// dotOracle is the surface at x the long way: standardize, expand the
// basis row, and take linalg.Dot with the coefficients.
func dotOracle(m *Model, x []float64) float64 {
	z := make([]float64, m.dim)
	for i := range z {
		z[i] = (x[i] - m.mean[i]) / m.scale[i]
	}
	b := make([]float64, BasisSize(m.dim))
	basisInto(z, b)
	return linalg.Dot(b, m.coef)
}

func TestBasisSize(t *testing.T) {
	cases := []struct{ dim, want int }{
		{1, 3},  // 1 + x + x²
		{2, 6},  // 1 + 2 + 1 + 2
		{3, 10}, // 1 + 3 + 3 + 3
		{9, 55},
	}
	for _, c := range cases {
		if got := BasisSize(c.dim); got != c.want {
			t.Fatalf("BasisSize(%d) = %d, want %d", c.dim, got, c.want)
		}
	}
}

func TestBasisExpansion(t *testing.T) {
	b := make([]float64, BasisSize(2))
	basisInto([]float64{2, 3}, b)
	want := []float64{1, 2, 3, 6, 4, 9} // 1, x1, x2, x1x2, x1², x2²
	if len(b) != len(want) {
		t.Fatalf("basis = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("basis[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestPredictKernelMatchesDot pins the one read path: Predict adds up term
// times coefficient without building the basis row, and must equal
// linalg.Dot of the basisInto row bit for bit. Random models of dimension
// 1 to 13 (13 standardizes on the heap) get coefficients and features
// spanning several orders of magnitude, so any reordering of the sum would
// show. A fitted model per dimension checks R² and RMSE the same way.
func TestPredictKernelMatchesDot(t *testing.T) {
	g := stats.NewRNG(17)
	wide := func() float64 { return g.Normal(0, 1) * math.Pow(10, g.Uniform(-3, 3)) }
	cases := 0
	for dim := 1; dim <= stackDim+1; dim++ {
		m := New(dim)
		m.mean, m.scale = make([]float64, dim), make([]float64, dim)
		m.coef = make([]float64, BasisSize(dim))
		m.fitted = true
		for k := 0; k < 100; k++ {
			for i := range m.mean {
				m.mean[i], m.scale[i] = wide(), math.Abs(wide())+1e-3
			}
			for i := range m.coef {
				m.coef[i] = wide()
			}
			x := make([]float64, dim)
			for i := range x {
				x[i] = wide()
			}
			got, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if want := dotOracle(m, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d case %d: Predict %v, Dot of the basis row %v", dim, k, got, want)
			}
			cases++
		}

		fitted := New(dim)
		ys := make([]float64, 2*BasisSize(dim))
		for i := range ys {
			x := make([]float64, dim)
			for j := range x {
				x[j] = g.Uniform(0, 10)
			}
			ys[i] = g.Normal(0, 1) + x[0]*x[dim-1]
			fitted.Observe(x, ys[i])
		}
		if err := fitted.Fit(); err != nil {
			t.Fatal(err)
		}
		var sse, sst, meanY float64
		for _, y := range ys {
			meanY += y
		}
		meanY /= float64(len(ys))
		for i, y := range ys {
			d := y - dotOracle(fitted, fitted.xd[i*dim:(i+1)*dim])
			sse += d * d
			dy := y - meanY
			sst += dy * dy
		}
		if r2 := 1 - sse/sst; math.Float64bits(fitted.R2()) != math.Float64bits(r2) {
			t.Fatalf("dim %d: R2 %v, oracle %v", dim, fitted.R2(), r2)
		}
		if rmse := math.Sqrt(sse / float64(len(ys))); math.Float64bits(fitted.RMSE()) != math.Float64bits(rmse) {
			t.Fatalf("dim %d: RMSE %v, oracle %v", dim, fitted.RMSE(), rmse)
		}
	}
	if cases != 1300 {
		t.Fatalf("%d cases, want 1300", cases)
	}
}

func TestNewBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim 0 did not panic")
		}
	}()
	New(0)
}

func TestFitRecoversExactQuadratic(t *testing.T) {
	// Ground truth: y = 5 + 2a + 3b - ab + 0.5a² + 0.25b², noise-free.
	truth := func(a, b float64) float64 {
		return 5 + 2*a + 3*b - a*b + 0.5*a*a + 0.25*b*b
	}
	m := New(2)
	g := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 5)
		m.Observe([]float64{a, b}, truth(a, b))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.99999 {
		t.Fatalf("R² = %v on noise-free quadratic, want ≈1", m.R2())
	}
	for i := 0; i < 50; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 5)
		pred, err := m.Predict([]float64{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred-truth(a, b)) > 1e-4 {
			t.Fatalf("Predict(%v,%v) = %v, want %v", a, b, pred, truth(a, b))
		}
	}
}

func TestFitWithNoiseDiagnostics(t *testing.T) {
	m := New(2)
	g := stats.NewRNG(2)
	truth := func(a, b float64) float64 { return 10 + a*a + 2*b }
	for i := 0; i < 400; i++ {
		a, b := g.Uniform(0, 10), g.Uniform(0, 10)
		m.Observe([]float64{a, b}, truth(a, b)+g.Normal(0, 2))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.95 {
		t.Fatalf("R² = %v, want > 0.95 with modest noise", m.R2())
	}
	if m.RMSE() < 1 || m.RMSE() > 3 {
		t.Fatalf("RMSE = %v, want ≈2 (noise std)", m.RMSE())
	}
}

func TestFitTooFewSamples(t *testing.T) {
	m := New(3) // needs 10 samples
	for i := 0; i < 9; i++ {
		m.Observe([]float64{float64(i), 1, 2}, 1)
	}
	err := m.Fit()
	if !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
	if m.Fitted() {
		t.Fatal("model claims fitted after failed Fit")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	m := New(2)
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	if v := m.PredictClamped([]float64{1, 2}, 7); v != 7 {
		t.Fatalf("PredictClamped before fit = %v, want floor", v)
	}
}

func TestPredictDimMismatchPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	m.Observe([]float64{1}, 2)
}

func TestPredictClampedFloor(t *testing.T) {
	// Fit y = x - 100 so predictions go negative for small x.
	m := New(1)
	for i := 0; i < 20; i++ {
		x := float64(i)
		m.Observe([]float64{x}, x-100)
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	if v := m.PredictClamped([]float64{1}, 0.5); v != 0.5 {
		t.Fatalf("clamp failed: %v", v)
	}
}

func TestConstantFeatureDoesNotBlowUp(t *testing.T) {
	// Second feature constant: scale guard must kick in, ridge must keep
	// the system solvable.
	m := New(2)
	g := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		a := g.Uniform(0, 10)
		m.Observe([]float64{a, 7}, 3*a+1)
	}
	if err := m.Fit(); err != nil {
		t.Fatalf("fit with constant feature failed: %v", err)
	}
	pred, _ := m.Predict([]float64{5, 7})
	if math.Abs(pred-16) > 0.5 {
		t.Fatalf("Predict = %v, want ≈16", pred)
	}
}

func TestWindowDropsOldSamples(t *testing.T) {
	m := New(1, WithWindow(10))
	for i := 0; i < 25; i++ {
		m.Observe([]float64{float64(i)}, float64(i))
	}
	if m.NumSamples() != 10 {
		t.Fatalf("NumSamples = %d, want 10", m.NumSamples())
	}
	// The retained samples must be the newest ones (15..24).
	if xs, _ := m.window(m.total); xs[0] != 15 {
		t.Fatalf("oldest retained = %v, want 15", xs[0])
	}
}

func TestModelAdaptsAfterDrift(t *testing.T) {
	// With a sliding window, the model tracks a regime change — the
	// "subsequently tune the model" behaviour.
	m := New(1, WithWindow(30))
	for i := 0; i < 30; i++ {
		x := float64(i % 10)
		m.Observe([]float64{x}, 2*x)
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Predict([]float64{5})
	for i := 0; i < 30; i++ {
		x := float64(i % 10)
		m.Observe([]float64{x}, 10*x) // regime change: slope 2 -> 10
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Predict([]float64{5})
	if math.Abs(before-10) > 0.5 || math.Abs(after-50) > 0.5 {
		t.Fatalf("drift adaptation failed: before=%v after=%v", before, after)
	}
}

func TestCoefficientsCopy(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		m.Observe([]float64{float64(i)}, float64(i))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	c := m.Coefficients()
	c[0] = 999
	c2 := m.Coefficients()
	if c2[0] == 999 {
		t.Fatal("Coefficients must return a copy")
	}
	if len(c2) != BasisSize(1) {
		t.Fatalf("coef len = %d", len(c2))
	}
}

// TestRefitAllocations pins the fit workspace's reuse: refits over a full
// sliding window allocate nothing, and refits over a growing window
// reallocate O(log n) times, not once per refit.
func TestRefitAllocations(t *testing.T) {
	g := stats.NewRNG(4)
	obs := func(m *Model) {
		a, b := g.Uniform(0, 10), g.Uniform(0, 5)
		m.Observe([]float64{a, b}, 3+a*b+g.Normal(0, 0.1))
	}
	fixed := New(2, WithWindow(64))
	for i := 0; i < 64; i++ {
		obs(fixed)
	}
	for i := 0; i < 100; i++ {
		obs(fixed)
		if err := fixed.Fit(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		obs(fixed)
		if err := fixed.Fit(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("refit at a fixed window allocates %v times, want 0", allocs)
	}

	refits := 2000
	if testing.Short() {
		refits = 500
	}
	growing := New(2)
	for i := 0; i < BasisSize(2); i++ {
		obs(growing)
	}
	// AllocsPerRun warms up with one call, so the measured call grows the
	// window from refits+6 to 2·refits+6 samples.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < refits; i++ {
			obs(growing)
			if err := growing.Fit(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := math.Log2(float64(growing.NumSamples())); allocs > limit {
		t.Fatalf("%d refits over a growing window allocate %v times, want at most log2(n) = %.1f", refits, allocs, limit)
	}
}
