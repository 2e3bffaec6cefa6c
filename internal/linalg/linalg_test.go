package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(norm2([]float64{3, 4}, 1), 5, 1e-12) {
		t.Fatal("norm2 wrong")
	}
	if norm2(nil, 1) != 0 {
		t.Fatal("norm2(nil) should be 0")
	}
	// Overflow safety.
	if math.IsInf(norm2([]float64{1e200, 1e200}, 1), 0) {
		t.Fatal("norm2 overflowed")
	}
}

// solveWorkspace lays a out in a fresh workspace and solves it with ridge
// strength lambda.
func solveWorkspace(a [][]float64, b []float64, lambda float64) ([]float64, error) {
	var ws Workspace
	return layOut(&ws, a).RidgeSolve(b, lambda)
}

// zeros returns an m×n matrix of zeros as row slices.
func zeros(m, n int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
	}
	return a
}

// mulVec returns a*x for a matrix given as row slices.
func mulVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		out[i] = Dot(row, x)
	}
	return out
}

func TestQRSolveSquare(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	x, err := solveWorkspace(a, []float64{5, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3x exactly from 5 consistent points.
	xs := []float64{0, 1, 2, 3, 4}
	a := zeros(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a[i][0] = 1
		a[i][1] = x
		b[i] = 2 + 3*x
	}
	coef, err := solveWorkspace(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(coef[0], 2, 1e-10) || !almostEq(coef[1], 3, 1e-10) {
		t.Fatalf("coef = %v, want [2 3]", coef)
	}
}

func TestQRLeastSquaresResidualOptimality(t *testing.T) {
	// With noise, the LS residual must be orthogonal to the column space:
	// Aᵀ(Ax−b) = 0.
	rng := rand.New(rand.NewSource(5))
	m, n := 30, 4
	a := zeros(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = rng.NormFloat64()
		}
		b[i] = rng.NormFloat64()
	}
	x, err := solveWorkspace(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := mulVec(a, x)
	for i := range r {
		r[i] -= b[i]
	}
	for j := 0; j < n; j++ {
		var v float64
		for i := range r {
			v += a[i][j] * r[i]
		}
		if math.Abs(v) > 1e-8 {
			t.Fatalf("normal equations violated at %d: %v", j, v)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}, {3, 6}} // rank 1
	_, err := solveWorkspace(a, []float64{1, 2, 3}, 0)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRZeroMatrix(t *testing.T) {
	_, err := solveWorkspace(zeros(3, 2), []float64{0, 0, 0}, 0)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular for a zero matrix", err)
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wide least-squares system did not panic")
		}
	}()
	solveWorkspace(zeros(2, 3), []float64{1, 2}, 0)
}

func TestRidgeRecoversSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}, {3, 6}} // rank 1
	x, err := solveWorkspace(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatalf("ridge failed on rank-deficient system: %v", err)
	}
	// Prediction should still be accurate on the consistent system.
	pred := mulVec(a, x)
	for i, want := range []float64{1, 2, 3} {
		if !almostEq(pred[i], want, 1e-3) {
			t.Fatalf("ridge prediction %d = %v, want %v", i, pred[i], want)
		}
	}
}

// TestRidgeZeroLambdaEqualsPlain: lambda = 0 is plain least squares, the
// reference solve over A alone, bit for bit.
func TestRidgeZeroLambdaEqualsPlain(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}, {4, -1}}
	b := []float64{5, 10, 2}
	x1, err := solveWorkspace(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := ridgeReference(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(x1, x2) {
		t.Fatalf("lambda=0 solve %v, want plain least squares %v", x1, x2)
	}
}

func TestRidgeNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lambda did not panic")
		}
	}()
	solveWorkspace(zeros(2, 2), []float64{1, 2}, -1)
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{10, 10}
	x0, _ := solveWorkspace(a, b, 0)
	x1, _ := solveWorkspace(a, b, 1)
	if !(norm2(x1, 1) < norm2(x0, 1)) {
		t.Fatalf("ridge did not shrink: %v vs %v", norm2(x1, 1), norm2(x0, 1))
	}
}

// Property: for random well-conditioned square systems, QR solving then
// multiplying back recovers the right-hand side.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint8) bool {
		n := 2 + int(seed)%5
		a := zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := solveWorkspace(a, b, 0)
		if err != nil {
			return false
		}
		back := mulVec(a, x)
		for i := range b {
			if !almostEq(back[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
