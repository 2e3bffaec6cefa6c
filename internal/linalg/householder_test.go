package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// refQR is the column-major Householder QR that the panel sweep replaced,
// kept as the oracle: factorReference factors it one column at a time, and
// solveInto applies Qᵀ to a right-hand side and back-substitutes.
type refQR struct {
	a    []float64 // m×n, column-major: column j is a[j*m : (j+1)*m]
	rd   []float64 // diagonal of R
	m, n int
	band int // column k is structurally zero below row band+k
}

// factorReference is the one-column-at-a-time Householder sweep: the oracle
// the panel kernels must reproduce bit for bit.
func factorReference(q *refQR) {
	buf, rd, m, n, band := q.a, q.rd, q.m, q.n, q.band
	for k := 0; k < n; k++ {
		ck := buf[k*m : (k+1)*m]
		hi := band + k + 1
		if hi > m {
			hi = m
		}
		nrm := norm2(ck[k:hi], 1)
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

// applyQT overwrites y (length m) with Qᵀy, one reflector after another.
// Each reflector's support ends at the band limit, so the loops stop there.
func (q *refQR) applyQT(y []float64) {
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
}

// solveInto is the least-squares solve after factorReference: y (length m)
// receives Qᵀb and x (length n) the solution. It returns ErrSingular for
// rank-deficient A.
func (q *refQR) solveInto(b, y, x []float64) error {
	if !(&qr{rd: q.rd, m: q.m}).fullRank() {
		return ErrSingular
	}
	copy(y, b)
	q.applyQT(y)
	for k := q.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < q.n; j++ {
			s -= q.a[j*q.m+k] * x[j]
		}
		x[k] = s / q.rd[k]
	}
	return nil
}

// kernels are the sweep's two kernels: the one this CPU dispatches to and
// the pure-Go twin. Without AVX2 both are the Go kernel.
var kernels = []struct {
	name string
	avx  bool
}{{"dispatched", useAVX2}, {"go", false}}

// bandedColMajor returns a random m×n column-major matrix whose column k is
// zero from row band+k on, the structure qr.band declares. Columns whose
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

// panelSystem lays the column-major m×n matrix a and the right-hand side b
// out as [A | b] in panels of ld >= m rows. Every other element of the
// buffer — the rows past m and the lanes past column n — holds NaN, which
// poisons any result that reads it.
func panelSystem(a, b []float64, m, n, ld, band int) *qr {
	buf := make([]float64, (n/PanelWidth+1)*PanelWidth*ld)
	for i := range buf {
		buf[i] = math.NaN()
	}
	for j := 0; j <= n; j++ {
		col := b
		if j < n {
			col = a[j*m : (j+1)*m]
		}
		for i, x := range col {
			buf[PanelOffset(j, ld)+PanelWidth*i] = x
		}
	}
	return &qr{a: buf, rd: make([]float64, n), m: m, n: n, ld: ld, band: band}
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

// column returns rows 0..m-1 of column j of a panel system.
func (q *qr) column(j int) []float64 {
	c := make([]float64, q.m)
	for i := range c {
		c[i] = q.a[PanelOffset(j, q.ld)+PanelWidth*i]
	}
	return c
}

// checkBlockedMatchesReference factors one banded system [A | b] with each
// kernel and requires bit-equal factors, R diagonal, Qᵀb and least-squares
// solution against the column-major oracle.
func checkBlockedMatchesReference(t *testing.T, seed int64, m, n, band int, zeroCols uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := bandedColMajor(rng, m, n, band, zeroCols)
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := refQR{a: append([]float64(nil), a...), rd: make([]float64, n), m: m, n: n, band: band}
	factorReference(&want)
	qtb := append([]float64(nil), b...)
	want.applyQT(qtb)
	xw := make([]float64, n)
	errW := want.solveInto(b, make([]float64, m), xw)
	for _, k := range kernels {
		got := panelSystem(a, b, m, n, m+1+int(seed&3), band)
		got.sweep(k.avx)
		where := fmt.Sprintf("%s kernel, m=%d n=%d band=%d zero=%#x", k.name, m, n, band, zeroCols)
		for j := 0; j < n; j++ {
			if !sameBits(got.column(j), want.a[j*m:(j+1)*m]) {
				t.Fatalf("%s: column %d of the factors differs from the reference", where, j)
			}
		}
		if !sameBits(got.rd, want.rd) {
			t.Fatalf("%s: rd = %v, want %v", where, got.rd, want.rd)
		}
		if !sameBits(got.column(n), qtb) {
			t.Fatalf("%s: folded right-hand side differs from the reference Qᵀb", where)
		}
		xg := make([]float64, n)
		errG := got.solve(xg)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("%s: solve errors differ: %v vs %v", where, errG, errW)
		}
		if errG == nil && !sameBits(xg, xw) {
			t.Fatalf("%s: solution %v, want %v", where, xg, xw)
		}
	}
}

func TestBlockedFactorMatchesReference(t *testing.T) {
	cases := []struct {
		m, n, band int
		zero       uint64
	}{
		{1, 1, 1, 0},
		{3, 3, 3, 0},
		{7, 5, 7, 0},      // one panel plus a remainder
		{10, 9, 10, 0b10}, // a zero column inside a panel
		{64, 55, 9, 0},    // ridge-shaped: a short band
		{255, 55, 200, 0}, // the QRSM bootstrap system
		{400, 61, 339, 1 << 60},
		{40, 8, 40, 0xff},                 // every column zero
		{30, 12, 30, 1<<3 | 1<<7 | 1<<11}, // the last lane of every panel zero
	}
	for i, c := range cases {
		checkBlockedMatchesReference(t, int64(i), c.m, c.n, c.band, c.zero)
	}
	// Every width from 1 to 64: every n mod 4, so every pivot lane of a
	// partly finished panel and every pad, dense and banded.
	for n := 1; n <= 64; n++ {
		checkBlockedMatchesReference(t, int64(100+n), n+7, n, n+7, 0)
		checkBlockedMatchesReference(t, int64(200+n), n+9, n, 9, 1<<(n/2))
	}
	// The systems the QRSM fits: 200 to 830 rows of 55 basis terms over the
	// ridge band.
	for _, rows := range []int{200, 431, 600, 830} {
		checkBlockedMatchesReference(t, int64(rows), rows+55, 55, rows, 0)
	}
}

// FuzzHouseholder drives both panel kernels against the reference loop over
// fuzzed shapes, bands and zero columns, widths not a multiple of four
// included.
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
// reference sweep with the ridge band, and solved. lambda = 0 solves plain
// least squares over A alone.
func ridgeReference(a [][]float64, b []float64, lambda float64) ([]float64, error) {
	m, n := len(a), len(a[0])
	rows := m
	if lambda > 0 {
		rows += n
	}
	q := refQR{a: make([]float64, rows*n), rd: make([]float64, n), m: rows, n: n, band: m}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			q.a[j*rows+i] = a[i][j]
		}
		if lambda > 0 {
			q.a[j*rows+m+j] = math.Sqrt(lambda)
		}
	}
	factorReference(&q)
	rhs := make([]float64, rows)
	copy(rhs, b)
	x := make([]float64, n)
	if err := q.solveInto(rhs, make([]float64, rows), x); err != nil {
		return nil, err
	}
	return x, nil
}

// layOut writes a into the workspace's design buffer.
func layOut(ws *Workspace, a [][]float64) *Workspace {
	d, ld := ws.Design(len(a), len(a[0]))
	for i, row := range a {
		for j, v := range row {
			d[PanelOffset(j, ld)+PanelWidth*i] = v
		}
	}
	return ws
}

// TestWorkspaceRidgeSolveBitIdentical reuses one workspace across systems
// that grow, shrink and change width, and requires every solution to match
// the reference solve bit for bit. Before each layout the whole buffer is
// poisoned with NaN, so stale tail rows, right-hand side and pad lanes show
// up in the result unless RidgeSolve overwrites them.
func TestWorkspaceRidgeSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws Workspace
	shapes := [][2]int{{60, 10}, {80, 10}, {30, 10}, {200, 55}, {120, 55}, {300, 21}, {7, 3}, {430, 55}, {5, 9}, {830, 55}, {64, 62}}
	for _, lambda := range []float64{0, 1e-6, 0.5} {
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			if lambda == 0 && m < n {
				continue
			}
			a := zeros(m, n)
			for _, row := range a {
				for j := range row {
					row[j] = rng.NormFloat64() * 10
				}
			}
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			stale := ws.buf[:cap(ws.buf)]
			for i := range stale {
				stale[i] = math.NaN()
			}
			got, err := layOut(&ws, a).RidgeSolve(b, lambda)
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
// sweeps only the design's m rows, against the reference least-squares
// solve.
func TestWorkspaceLeastSquaresBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ws Workspace
	for _, sh := range [][2]int{{40, 6}, {90, 13}, {13, 13}, {70, 55}} {
		m, n := sh[0], sh[1]
		a := zeros(m, n)
		for _, row := range a {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := layOut(&ws, a).RidgeSolve(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ridgeReference(a, b, 0)
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
	// [A | b] is seven columns: two panels of 20+n rows.
	if got, want := cap(ws.buf), 2*PanelWidth*(20+n); got != want {
		t.Fatalf("first design capacity %d, want exactly %d", got, want)
	}
	b := make([]float64, 2000)
	grows := 0
	for m := 21; m <= 2000; m++ {
		before := cap(ws.buf)
		d, ld := ws.Design(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d[PanelOffset(j, ld)+PanelWidth*i] = float64((i*7+j*3)%11) - 5
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

// TestKernelDispatch fails when an amd64 CPU with AVX2 runs the pure-Go
// kernel: every fit, and every benchmark of one, would silently measure the
// fallback. The CPU's flags come from the operating system, not from the
// package's own CPUID check.
func TestKernelDispatch(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if useAVX2 {
			t.Fatalf("the AVX2 kernel is dispatched on %s", runtime.GOARCH)
		}
		t.Skipf("no AVX2 kernel on %s", runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check the dispatch against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		avx2 := false
		for _, f := range strings.Fields(flags) {
			avx2 = avx2 || f == "avx2"
		}
		if avx2 != useAVX2 {
			t.Fatalf("CPU flags say avx2=%v, but the AVX2 kernel is dispatched=%v", avx2, useAVX2)
		}
		return
	}
	t.Skip("no flags line in the CPU description")
}

// BenchmarkSweep factors a system of the serve's typical ridge shape, 430
// rows of 55 basis terms over the ridge band, and folds in its right-hand
// side, with each kernel.
func BenchmarkSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const rows, n = 430, 55
	m := rows + n
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	base := panelSystem(bandedColMajor(rng, m, n, rows, 0), y, m, n, m, rows)
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			q := *base
			q.a = make([]float64, len(base.a))
			for i := 0; i < b.N; i++ {
				copy(q.a, base.a)
				q.sweep(k.avx)
			}
		})
	}
}

// TestReflectorLayout pins the field offsets blockAVX2 reads.
func TestReflectorLayout(t *testing.T) {
	var r reflector
	if got := [3]uintptr{unsafe.Offsetof(r.lo), unsafe.Offsetof(r.hi), unsafe.Offsetof(r.dk)}; got != [3]uintptr{0, 8, 16} || unsafe.Sizeof(r) != 24 {
		t.Fatalf("reflector fields at %v, size %d; the assembly reads lo, hi, dk at 0, 8, 16 of 24", got, unsafe.Sizeof(r))
	}
}
