package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is numerically rank-deficient.
var ErrSingular = errors.New("linalg: matrix is singular or rank-deficient")

// QR holds a Householder QR factorization A = Q*R of an m×n matrix with
// m >= n. Q is stored implicitly as Householder vectors in the lower
// trapezoid; R occupies the upper triangle. The factors are kept
// column-major: every Householder step walks one column top to bottom, so
// this layout turns the hot loops into contiguous scans (the row-major
// version strides by n on every access and dominated the fit profile).
type QR struct {
	a    []float64 // m×n, column-major: column j is a[j*m : (j+1)*m]
	rd   []float64 // diagonal of R
	m, n int
	band int // column k is structurally zero below row band+k (see below)
}

// NewQR factors a (m×n, m>=n). The input is not modified.
func NewQR(a *Matrix) *QR {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	m, n := a.Rows, a.Cols
	buf := make([]float64, m*n)
	for j := 0; j < n; j++ {
		cj := buf[j*m : (j+1)*m]
		for i := 0; i < m; i++ {
			cj[i] = a.Data[i*n+j]
		}
	}
	q := &QR{a: buf, rd: make([]float64, n), m: m, n: n, band: m}
	q.factor()
	return q
}

// factor runs the Householder sweep over q.a in place, filling q.rd.
//
// q.band declares known structure: column k is exactly zero below row
// band+k-1 on entry (band = m declares a dense matrix). Ridge augmentation
// produces such systems — the sqrt(lambda)·I tail — and the zero suffix is
// invariant under the factorization: reflector k has the same support, so
// it can neither read nor produce nonzeros past it. Truncating the loops
// there only drops terms that multiply exact zeros.
//
// Each reflector is applied to four trailing columns per pass, so one walk
// over the reflector serves four columns. Every column keeps its own
// accumulator and sums in row order, exactly as a one-column-at-a-time
// sweep does, so the factors are bit-identical to it.
func (q *QR) factor() {
	buf, rd, m, n := q.a, q.rd, q.m, q.n
	for k := 0; k < n; k++ {
		hi := min(q.band+k+1, m) // one past the last structurally nonzero row
		v := buf[k*m+k : k*m+hi]
		// Householder vector for column k. Norm2 skips zeros internally, so
		// the truncated span yields the identical norm.
		nrm := Norm2(v)
		if nrm == 0 {
			rd[k] = 0
			continue
		}
		if v[0] < 0 {
			nrm = -nrm
		}
		for i := range v {
			v[i] /= nrm
		}
		v[0]++
		dk := v[0]
		// Apply the reflector to the remaining columns, four at a time.
		j := k + 1
		for ; j+4 <= n; j += 4 {
			c0 := buf[j*m+k : j*m+hi]
			c1 := buf[(j+1)*m+k : (j+1)*m+hi]
			c2 := buf[(j+2)*m+k : (j+2)*m+hi]
			c3 := buf[(j+3)*m+k : (j+3)*m+hi]
			// Equal lengths let the compiler drop the bounds checks below.
			c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
			var s0, s1, s2, s3 float64
			for i, vi := range v {
				s0 += vi * c0[i]
				s1 += vi * c1[i]
				s2 += vi * c2[i]
				s3 += vi * c3[i]
			}
			s0, s1, s2, s3 = -s0/dk, -s1/dk, -s2/dk, -s3/dk
			for i, vi := range v {
				c0[i] += s0 * vi
				c1[i] += s1 * vi
				c2[i] += s2 * vi
				c3[i] += s3 * vi
			}
		}
		for ; j < n; j++ {
			cj := buf[j*m+k : j*m+hi][:len(v)]
			var s float64
			for i, vi := range v {
				s += vi * cj[i]
			}
			s = -s / dk
			for i, vi := range v {
				cj[i] += s * vi
			}
		}
		rd[k] = -nrm
	}
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (q *QR) FullRank() bool {
	var maxd float64
	for _, d := range q.rd {
		if math.Abs(d) > maxd {
			maxd = math.Abs(d)
		}
	}
	if maxd == 0 {
		return false
	}
	tol := maxd * 1e-12 * float64(q.m)
	for _, d := range q.rd {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ||A*x - b||₂.
// b must have length m. It returns ErrSingular for rank-deficient A.
func (q *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, q.n)
	if err := q.solveInto(b, make([]float64, q.m), x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveInto is Solve with caller-provided scratch: y (length m) holds the
// transformed right-hand side, x (length n) receives the solution. The
// arithmetic is identical to Solve — the buffers are fully overwritten.
func (q *QR) solveInto(b, y, x []float64) error {
	if len(b) != q.m {
		panic(fmt.Sprintf("linalg: QR solve rhs length %d, want %d", len(b), q.m))
	}
	if !q.FullRank() {
		return ErrSingular
	}
	copy(y, b)
	// Apply Qᵀ to b. Each reflector's support ends at the band limit, so
	// the loops stop there (the skipped products are exactly zero).
	for k := 0; k < q.n; k++ {
		ck := q.a[k*q.m : (k+1)*q.m]
		if ck[k] == 0 {
			continue
		}
		hi := q.band + k + 1
		if hi > q.m {
			hi = q.m
		}
		var s float64
		for i := k; i < hi; i++ {
			s += ck[i] * y[i]
		}
		s = -s / ck[k]
		for i := k; i < hi; i++ {
			y[i] += s * ck[i]
		}
	}
	// Back-substitute R*x = y[:n].
	for k := q.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < q.n; j++ {
			s -= q.a[j*q.m+k] * x[j]
		}
		x[k] = s / q.rd[k]
	}
	return nil
}

// LeastSquares solves min ||A*x − b||₂ by QR. For rank-deficient systems it
// returns ErrSingular; callers that need a solution anyway should use
// RidgeLeastSquares.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewQR(a).Solve(b)
}

// RidgeLeastSquares solves min ||A*x − b||₂² + lambda*||x||₂² by augmenting A
// with sqrt(lambda)*I. Any lambda > 0 makes the system full rank, which is
// how the QRSM fit stays stable when document features are collinear.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		panic("linalg: negative ridge lambda")
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	var ws Workspace
	d, stride := ws.Design(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		cj := d[j*stride : j*stride+a.Rows]
		for i := range cj {
			cj[i] = a.Data[i*a.Cols+j]
		}
	}
	return ws.RidgeSolve(b, lambda)
}

// Workspace holds the buffers for repeated ridge solves. A caller lays its
// design matrix straight into the factorization's column-major buffer
// (Design) and then solves in place (RidgeSolve), so no intermediate copy of
// the design exists. Buffers grow geometrically: a model refitting over a
// fixed window allocates nothing once warm, and one refitting over a
// growing window reallocates O(log n) times. The zero value is ready to
// use. A Workspace is not safe for concurrent use; each fitting goroutine
// needs its own.
type Workspace struct {
	buf  []float64 // column-major augmented design matrix, column stride m+n
	rd   []float64 // R diagonal
	y    []float64 // transformed rhs
	x    []float64 // solution
	m, n int       // shape of the design laid out by the last Design call
}

// grow returns s with length n, reusing its backing array when capacity
// allows. A short buffer is replaced at exactly n the first time and at
// twice its old capacity after that: a system solved once (a pooled run's
// first fit) pays only its own size, while a steadily growing one
// reallocates O(log n) times. Contents are unspecified; callers overwrite
// every element.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n, max(n, 2*cap(s)))
}

// Design prepares the workspace for an m×n ridge system and returns the
// column-major buffer the design lives in, with its column stride: element
// (i, j) of the design is a[j*stride+i]. The caller must write every element
// of rows 0..m-1 before RidgeSolve, which owns the rows below them.
func (ws *Workspace) Design(m, n int) (a []float64, stride int) {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("linalg: invalid design shape %dx%d", m, n))
	}
	ws.m, ws.n = m, n
	stride = m + n
	ws.buf = grow(ws.buf, stride*n)
	return ws.buf, stride
}

// RidgeSolve solves min ||A*x − b||₂² + lambda*||x||₂² for the design laid
// out by the last Design call, factoring it in place: the design does not
// survive the call. The returned solution aliases the workspace and is
// valid until the next call — callers that retain it must copy. Values and
// evaluation order match RidgeLeastSquares (LeastSquares for lambda = 0)
// exactly, so results are bit-identical.
func (ws *Workspace) RidgeSolve(b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		panic("linalg: negative ridge lambda")
	}
	m, n := ws.m, ws.n
	if len(b) != m {
		panic(fmt.Sprintf("linalg: ridge rhs length %d, want %d", len(b), m))
	}
	ws.rd = grow(ws.rd, n)
	ws.x = grow(ws.x, n)
	var q QR
	if lambda == 0 {
		// Plain least squares: close the columns up to stride m, the layout
		// NewQR factors.
		if m < n {
			panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", m, n))
		}
		for j := 1; j < n; j++ {
			copy(ws.buf[j*m:(j+1)*m], ws.buf[j*(m+n):j*(m+n)+m])
		}
		q = QR{a: ws.buf[:m*n], rd: ws.rd, m: m, n: n, band: m}
		ws.y = grow(ws.y, m)
		copy(ws.y, b)
	} else {
		rows := m + n
		// The augmented tail is sqrt(lambda) on the diagonal and exact zeros
		// elsewhere; a reused buffer carries stale values, so write them.
		s := math.Sqrt(lambda)
		for j := 0; j < n; j++ {
			tail := ws.buf[j*rows+m : (j+1)*rows]
			clear(tail)
			tail[j] = s
		}
		q = QR{a: ws.buf[:rows*n], rd: ws.rd, m: rows, n: n, band: m}
		// Assemble the augmented rhs [b; 0].
		ws.y = grow(ws.y, rows)
		copy(ws.y, b)
		clear(ws.y[m:])
	}
	q.factor()
	// solveInto's copy of the aliased y is a no-op.
	if err := q.solveInto(ws.y, ws.y, ws.x); err != nil {
		return nil, err
	}
	return ws.x, nil
}

// SolveSquare solves the square system A*x = b via QR (stable for the small
// systems used here).
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: SolveSquare needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	return LeastSquares(a, b)
}
