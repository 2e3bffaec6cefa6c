package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// factorReference is the one-column-at-a-time Householder sweep: the oracle
// the blocked QR.factor must reproduce bit for bit.
func factorReference(q *QR) {
	buf, rd, m, n, band := q.a, q.rd, q.m, q.n, q.band
	for k := 0; k < n; k++ {
		ck := buf[k*m : (k+1)*m]
		hi := band + k + 1
		if hi > m {
			hi = m
		}
		nrm := Norm2(ck[k:hi])
		if nrm == 0 {
			rd[k] = 0
			continue
		}
		if ck[k] < 0 {
			nrm = -nrm
		}
		for i := k; i < hi; i++ {
			ck[i] /= nrm
		}
		ck[k]++
		dk := ck[k]
		for j := k + 1; j < n; j++ {
			cj := buf[j*m : (j+1)*m]
			var s float64
			for i := k; i < hi; i++ {
				s += ck[i] * cj[i]
			}
			s = -s / dk
			for i := k; i < hi; i++ {
				cj[i] += s * ck[i]
			}
		}
		rd[k] = -nrm
	}
}

// bandedColMajor returns a random m×n column-major matrix whose column k is
// zero from row band+k on, the structure QR.band declares. Columns whose
// bit is set in zeroCols are zero throughout.
func bandedColMajor(rng *rand.Rand, m, n, band int, zeroCols uint64) []float64 {
	a := make([]float64, m*n)
	for j := 0; j < n; j++ {
		if zeroCols&(1<<(j%64)) != 0 {
			continue
		}
		for i := 0; i < min(band+j, m); i++ {
			a[j*m+i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return a
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBlockedMatchesReference factors one banded matrix with the blocked
// sweep and with the reference, and requires bit-equal factors, R diagonals
// and least-squares solutions.
func checkBlockedMatchesReference(t *testing.T, seed int64, m, n, band int, zeroCols uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := bandedColMajor(rng, m, n, band, zeroCols)
	got := QR{a: append([]float64(nil), a...), rd: make([]float64, n), m: m, n: n, band: band}
	want := QR{a: append([]float64(nil), a...), rd: make([]float64, n), m: m, n: n, band: band}
	got.factor()
	factorReference(&want)
	if !sameBits(got.a, want.a) {
		t.Fatalf("m=%d n=%d band=%d zero=%#x: blocked factors differ from the reference", m, n, band, zeroCols)
	}
	if !sameBits(got.rd, want.rd) {
		t.Fatalf("m=%d n=%d band=%d zero=%#x: rd = %v, want %v", m, n, band, zeroCols, got.rd, want.rd)
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xg, xw := make([]float64, n), make([]float64, n)
	errG := got.solveInto(b, make([]float64, m), xg)
	errW := want.solveInto(b, make([]float64, m), xw)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("m=%d n=%d band=%d: solve errors differ: %v vs %v", m, n, band, errG, errW)
	}
	if errG == nil && !sameBits(xg, xw) {
		t.Fatalf("m=%d n=%d band=%d: solution %v, want %v", m, n, band, xg, xw)
	}
}

func TestBlockedFactorMatchesReference(t *testing.T) {
	cases := []struct {
		m, n, band int
		zero       uint64
	}{
		{1, 1, 1, 0},
		{3, 3, 3, 0},
		{7, 5, 7, 0},      // one block of four plus a remainder
		{10, 9, 10, 0b10}, // a zero column inside a block
		{64, 55, 9, 0},    // ridge-shaped: a short band
		{255, 55, 200, 0}, // the QRSM bootstrap system
		{400, 61, 339, 1 << 60},
		{40, 8, 40, 0xff}, // every column zero
	}
	for i, c := range cases {
		checkBlockedMatchesReference(t, int64(i), c.m, c.n, c.band, c.zero)
	}
}

// FuzzHouseholder drives the blocked sweep against the reference loop over
// fuzzed shapes, bands and zero columns, p not a multiple of four included.
func FuzzHouseholder(f *testing.F) {
	f.Add(int64(1), uint16(20), uint8(7), uint16(20), uint64(0))
	f.Add(int64(2), uint16(255), uint8(55), uint16(200), uint64(0))
	f.Add(int64(3), uint16(9), uint8(9), uint16(1), uint64(0b101))
	f.Add(int64(4), uint16(33), uint8(13), uint16(5), uint64(1<<12))
	f.Fuzz(func(t *testing.T, seed int64, m16 uint16, n8 uint8, band16 uint16, zero uint64) {
		m := 1 + int(m16)%300
		n := 1 + int(n8)%min(m, 64)
		band := 1 + int(band16)%m
		checkBlockedMatchesReference(t, seed, m, n, band, zero)
	})
}

// ridgeReference solves the ridge system the pre-workspace way: the
// augmented matrix [A; sqrt(lambda)·I] built densely, factored by the
// reference sweep with the ridge band, and solved.
func ridgeReference(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	rows := m + n
	aug := NewMatrix(rows, n)
	copy(aug.Data, a.Data)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, math.Sqrt(lambda))
	}
	q := QR{a: make([]float64, rows*n), rd: make([]float64, n), m: rows, n: n, band: m}
	for j := 0; j < n; j++ {
		for i := 0; i < rows; i++ {
			q.a[j*rows+i] = aug.At(i, j)
		}
	}
	factorReference(&q)
	rhs := make([]float64, rows)
	copy(rhs, b)
	return q.Solve(rhs)
}

// TestWorkspaceRidgeSolveBitIdentical reuses one workspace across systems
// that grow, shrink and change width — stale buffer contents included — and
// requires every solution to match the reference solve bit for bit.
func TestWorkspaceRidgeSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws Workspace
	shapes := [][2]int{{60, 10}, {80, 10}, {30, 10}, {200, 55}, {120, 55}, {300, 21}, {7, 3}}
	for _, lambda := range []float64{1e-6, 0.5} {
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			a := NewMatrix(m, n)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64() * 10
			}
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			d, stride := ws.Design(m, n)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					d[j*stride+i] = a.At(i, j)
				}
			}
			got, err := ws.RidgeSolve(b, lambda)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ridgeReference(a, b, lambda)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%dx%d lambda=%v: workspace solve %v, want %v", m, n, lambda, got, want)
			}
		}
	}
}

// TestWorkspaceLeastSquaresBitIdentical pins the lambda = 0 path, which
// closes the design up to stride m, against LeastSquares.
func TestWorkspaceLeastSquaresBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ws Workspace
	for _, sh := range [][2]int{{40, 6}, {90, 13}, {13, 13}} {
		m, n := sh[0], sh[1]
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		d, stride := ws.Design(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d[j*stride+i] = a.At(i, j)
			}
		}
		got, err := ws.RidgeSolve(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%dx%d: workspace solve %v, want %v", m, n, got, want)
		}
	}
}

// TestWorkspaceGrowth pins the growth policy: the first layout is exact,
// later ones at least double, so growing one row at a time reallocates
// O(log n) times and a repeated shape not at all.
func TestWorkspaceGrowth(t *testing.T) {
	var ws Workspace
	const n = 6
	ws.Design(20, n)
	if got, want := cap(ws.buf), (20+n)*n; got != want {
		t.Fatalf("first design capacity %d, want exactly %d", got, want)
	}
	b := make([]float64, 2000)
	grows := 0
	for m := 21; m <= 2000; m++ {
		before := cap(ws.buf)
		d, stride := ws.Design(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d[j*stride+i] = float64((i*7+j*3)%11) - 5
			}
		}
		if _, err := ws.RidgeSolve(b[:m], 1e-6); err != nil {
			t.Fatal(err)
		}
		if cap(ws.buf) != before {
			grows++
		}
	}
	if max := int(math.Ceil(math.Log2(2000))); grows > max {
		t.Fatalf("design buffer grew %d times over 1,980 growing solves, want at most %d", grows, max)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.Design(2000, n)
		if _, err := ws.RidgeSolve(b, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated solve allocates %v times, want 0", allocs)
	}
}
