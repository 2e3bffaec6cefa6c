package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is numerically rank-deficient.
var ErrSingular = errors.New("linalg: matrix is singular or rank-deficient")

// PanelWidth is the number of columns a panel interleaves.
const PanelWidth = 4

// PanelOffset returns where column j starts in a panel buffer whose panels
// hold ld rows each: element (i, j) is at PanelOffset(j, ld)+PanelWidth*i.
// Panel j/PanelWidth holds columns j/PanelWidth*PanelWidth onward, row
// after row, so one 32-byte load reads the same row of all its columns.
func PanelOffset(j, ld int) int {
	return j/PanelWidth*PanelWidth*ld + j%PanelWidth
}

// qr is a least-squares system [A | b] laid out in panels, factored in place
// by sweep: A = Q*R, with the Householder vectors in A's lower trapezoid,
// R's strict upper triangle above them and R's diagonal in rd, and b
// becomes Qᵀb.
type qr struct {
	a    []float64 // panels of ld rows; column n is the right-hand side
	rd   []float64 // diagonal of R
	m, n int       // rows swept, columns of A
	ld   int       // rows each panel holds, m or more
	band int       // column k is structurally zero below row band+k (see sweep)
}

// sweep runs the Householder factorization of A in place and applies each
// reflector to b, column n, along with the columns it updates. For Qᵀb that
// is exactly the product, the row-order sum, the -s/dk and the update that
// applying Q's reflectors to b one by one computes, so the folded
// right-hand side matches a separate solve bit for bit. avx picks the
// kernel.
//
// q.band declares known structure: column k is exactly zero below row
// band+k on entry (band = m declares a dense matrix). Ridge augmentation
// produces such systems — the sqrt(lambda)·I tail — and the zero suffix is
// invariant under the factorization: reflector k has the same support, so
// it can neither read nor produce nonzeros past it. Truncating the loops
// there only drops terms that multiply exact zeros.
//
// The reflectors go one panel at a time. Each column of the pivot panel
// gets its norm and its divisions in scalar code, and its reflector is
// applied to the panel's later lanes before the next column's norm. Then
// the panel's reflectors are applied, in order, to every later panel. A
// column therefore meets reflectors 0, 1, 2, ... in the order and with the
// operands of the one-column-at-a-time sweep, and only the interleaving
// across columns differs, which changes no bits. The kernel keeps four
// columns in the lanes of one register, each lane summing its own column
// in row order.
func (q *qr) sweep(avx bool) {
	a, m, n := q.a, q.m, q.n
	ps := PanelWidth * q.ld
	np := n/PanelWidth + 1 // panels holding [A | b]
	for pk := 0; pk*PanelWidth < n; pk++ {
		k0 := pk * PanelWidth
		last := min(k0+PanelWidth, n) - 1
		// The pivot panel from row k0 down to the block's last nonzero row.
		top := pk*ps + PanelWidth*k0
		pivot := a[top : top+PanelWidth*(min(q.band+last+1, m)-k0)]
		var rs [PanelWidth]reflector
		nr := 0
		for k := k0; k <= last; k++ {
			hi := min(q.band+k+1, m) // one past the last structurally nonzero row
			r := reflector{lo: k - k0, hi: hi - k0}
			v := pivot[PanelWidth*r.lo+r.lo : PanelWidth*(r.hi-1)+r.lo+1]
			// norm2 skips zeros, so the truncated span yields the identical
			// norm.
			nrm := norm2(v, PanelWidth)
			if nrm == 0 {
				q.rd[k] = 0
				continue
			}
			if v[0] < 0 {
				nrm = -nrm
			}
			for i := 0; i < len(v); i += PanelWidth {
				v[i] /= nrm
			}
			v[0]++
			r.dk = v[0]
			rs[nr] = r
			if r.lo < PanelWidth-1 {
				applyBlock(avx, pivot, ps, 1, pivot, rs[nr:nr+1], r.lo)
			}
			nr++
			q.rd[k] = -nrm
		}
		if nr == 0 {
			continue
		}
		// The block's reflectors, applied to the later panels two at a time.
		for p := pk + 1; p < np; p += 2 {
			g := min(2, np-p)
			off := p*ps + PanelWidth*k0
			applyBlock(avx, a[off:off+(g-1)*ps+len(pivot)], ps, g, pivot, rs[:nr], -1)
		}
	}
}

// fullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (q *qr) fullRank() bool {
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

// solve back-substitutes R*x = (Qᵀb)[:n] into x (length n) after sweep. It
// returns ErrSingular for rank-deficient A.
func (q *qr) solve(x []float64) error {
	if !q.fullRank() {
		return ErrSingular
	}
	at := func(i, j int) float64 { return q.a[PanelOffset(j, q.ld)+PanelWidth*i] }
	for k := q.n - 1; k >= 0; k-- {
		s := at(k, q.n)
		for j := k + 1; j < q.n; j++ {
			s -= at(k, j) * x[j]
		}
		x[k] = s / q.rd[k]
	}
	return nil
}

// Workspace holds the buffers for repeated ridge solves. A caller lays its
// design matrix straight into the factorization's panel buffer (Design)
// and then solves in place (RidgeSolve), so no intermediate copy of the
// design exists. Buffers grow geometrically: a model refitting over a
// fixed window allocates nothing once warm, and one refitting over a
// growing window reallocates O(log n) times. The zero value is ready to
// use. A Workspace is not safe for concurrent use; each fitting goroutine
// needs its own.
type Workspace struct {
	buf  []float64 // [A | b] with the ridge tail, panels of m+n rows
	rd   []float64 // R diagonal
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
// panel buffer the design lives in, with the rows each panel holds: element
// (i, j) of the design is a[PanelOffset(j, ld)+PanelWidth*i]. The caller
// must write every element of rows 0..m-1 of columns 0..n-1 before
// RidgeSolve, which owns everything else in the buffer.
func (ws *Workspace) Design(m, n int) (a []float64, ld int) {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("linalg: invalid design shape %dx%d", m, n))
	}
	ws.m, ws.n = m, n
	ld = m + n
	ws.buf = grow(ws.buf, (n/PanelWidth+1)*PanelWidth*ld)
	return ws.buf, ld
}

// RidgeSolve solves min ||A*x − b||₂² + lambda*||x||₂² for the design laid
// out by the last Design call, factoring it in place: the design does not
// survive the call. Any lambda > 0 makes the system full rank, which is
// how the QRSM fit stays stable when features are collinear; lambda = 0
// solves plain least squares and needs m >= n. It returns ErrSingular for
// a rank-deficient system. The returned solution aliases the workspace and
// is valid until the next call — callers that retain it must copy.
func (ws *Workspace) RidgeSolve(b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		panic("linalg: negative ridge lambda")
	}
	m, n := ws.m, ws.n
	if len(b) != m {
		panic(fmt.Sprintf("linalg: ridge rhs length %d, want %d", len(b), m))
	}
	ld := m + n
	ws.rd = grow(ws.rd, n)
	ws.x = grow(ws.x, n)
	q := qr{a: ws.buf, rd: ws.rd, m: ld, n: n, ld: ld, band: m}
	if lambda == 0 {
		// Plain least squares: the sweep stops at row m, so the rows below
		// are never read.
		if m < n {
			panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", m, n))
		}
		q.m = m
	} else {
		// The augmented tail [sqrt(lambda)·I; 0] below A and b: a reused
		// buffer carries stale values, so write every element.
		s := math.Sqrt(lambda)
		for j := 0; j <= n; j++ {
			off := PanelOffset(j, ld)
			for i := m; i < ld; i++ {
				ws.buf[off+PanelWidth*i] = 0
			}
			if j < n {
				ws.buf[off+PanelWidth*(m+j)] = s
			}
		}
	}
	// The right-hand side is column n.
	rhs := PanelOffset(n, ld)
	for i, bi := range b {
		ws.buf[rhs+PanelWidth*i] = bi
	}
	// The lanes past it only pad the last panel. The kernel computes on
	// them and nothing reads them back; zero them, so that stale values
	// cannot turn into slow subnormal arithmetic.
	for j := n + 1; j%PanelWidth != 0; j++ {
		off := PanelOffset(j, ld)
		for i := 0; i < ld; i++ {
			ws.buf[off+PanelWidth*i] = 0
		}
	}
	q.sweep(useAVX2)
	if err := q.solve(ws.x); err != nil {
		return nil, err
	}
	return ws.x, nil
}
