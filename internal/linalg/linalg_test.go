package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixAndAccess(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("new matrix should be zero")
	}
}

func TestNewMatrixBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0x0 matrix did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatal("FromRows layout wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	i := Identity(2)
	if MaxAbsDiff(a.Mul(i), a) != 0 || MaxAbsDiff(i.Mul(a), a) != 0 {
		t.Fatal("identity multiplication changed matrix")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("T() wrong: %v", at)
	}
	if MaxAbsDiff(at.T(), a) != 0 {
		t.Fatal("double transpose should be identity")
	}
}

func TestRowColClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(1)
	c := a.Col(0)
	if r[0] != 3 || r[1] != 4 || c[0] != 1 || c[1] != 3 {
		t.Fatal("Row/Col wrong")
	}
	r[0] = 99
	if a.At(1, 0) == 99 {
		t.Fatal("Row must return a copy")
	}
	cl := a.Clone()
	cl.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) should be 0")
	}
	// Overflow safety.
	if math.IsInf(Norm2([]float64{1e200, 1e200}), 0) {
		t.Fatal("Norm2 overflowed")
	}
}

// solveWorkspace lays a out in a fresh workspace and solves it with ridge
// strength lambda.
func solveWorkspace(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	var ws Workspace
	return layOut(&ws, a).RidgeSolve(b, lambda)
}

func TestQRSolveSquare(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
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
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
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
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := solveWorkspace(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	atr := a.T().MulVec(r)
	for j, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("normal equations violated at %d: %v", j, v)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	_, err := solveWorkspace(a, []float64{1, 2, 3}, 0)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRZeroMatrix(t *testing.T) {
	_, err := solveWorkspace(NewMatrix(3, 2), []float64{0, 0, 0}, 0)
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
	solveWorkspace(NewMatrix(2, 3), []float64{1, 2}, 0)
}

func TestRidgeRecoversSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	x, err := solveWorkspace(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatalf("ridge failed on rank-deficient system: %v", err)
	}
	// Prediction should still be accurate on the consistent system.
	pred := a.MulVec(x)
	for i, want := range []float64{1, 2, 3} {
		if !almostEq(pred[i], want, 1e-3) {
			t.Fatalf("ridge prediction %d = %v, want %v", i, pred[i], want)
		}
	}
}

// TestRidgeZeroLambdaEqualsPlain: lambda = 0 is plain least squares, the
// reference solve over A alone, bit for bit.
func TestRidgeZeroLambdaEqualsPlain(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}, {4, -1}})
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
	solveWorkspace(NewMatrix(2, 2), []float64{1, 2}, -1)
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := []float64{10, 10}
	x0, _ := solveWorkspace(a, b, 0)
	x1, _ := solveWorkspace(a, b, 1)
	if !(Norm2(x1) < Norm2(x0)) {
		t.Fatalf("ridge did not shrink: %v vs %v", Norm2(x1), Norm2(x0))
	}
}

// Property: for random well-conditioned square systems, QR solving then
// multiplying back recovers the right-hand side.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint8) bool {
		n := 2 + int(seed)%5
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := solveWorkspace(a, b, 0)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
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

func TestStringRendering(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}
