package linalg

// useAVX2 picks the sweep's kernel once, when the package loads: the AVX2
// assembly where the CPU and the OS support it, the pure-Go twin
// everywhere else. Both give the same bits.
var useAVX2 = hasAVX2()

// reflector is one Householder reflector of a block. Rows count from the
// block's first row, so the reflector of the block's column lo starts at
// row lo and lives in lane lo of the pivot panel: its vector is
// v[PanelWidth*i+lo] for rows i in [lo, hi), and dk is its first element.
// blockAVX2 reads the fields at byte offsets 0, 8 and 16.
type reflector struct {
	lo, hi int
	dk     float64
}

// applyBlock applies the reflectors rs, in order, to g (1 or 2) panels of
// c, with the chosen kernel. c[q*pstride+PanelWidth*i+l] is row i of lane
// l of panel q, and v is the pivot panel, both from the block's first row.
// lane >= 0 names the pivot's lane when c is the pivot panel itself: the
// lanes up to it are finished and must not change, and rs then holds one
// reflector.
func applyBlock(avx bool, c []float64, pstride, g int, v []float64, rs []reflector, lane int) {
	if lane >= 0 && (lane >= PanelWidth-1 || g != 1 || len(rs) != 1) {
		panic("linalg: a pivot panel takes one reflector at a time, on lanes it has")
	}
	// The assembly indexes without bounds checks: check the extremes here.
	// The last reflector reaches furthest.
	hi := rs[len(rs)-1].hi
	_ = c[(g-1)*pstride+PanelWidth*hi-1]
	_ = v[PanelWidth*hi-1]
	if avx {
		blockAVX2(&c[0], pstride, g, &v[0], &rs[0], len(rs), lane)
		return
	}
	blockGo(c, pstride, g, v, rs, lane)
}

// blockGo is the kernel in Go: each reflector in turn, on each panel.
func blockGo(c []float64, pstride, g int, v []float64, rs []reflector, lane int) {
	for q := 0; q < g; q++ {
		for _, r := range rs {
			off := q*pstride + PanelWidth*r.lo
			reflectPanel(c[off:off+PanelWidth*(r.hi-r.lo)], v[PanelWidth*r.lo+r.lo:], r.dk, lane)
		}
	}
}

// reflectPanel applies one reflector to the rows p of a panel, v[i] being
// the reflector's element for row p[i:i+PanelWidth]. Each column sums its
// dot product with v in row order from zero, scales it by -1/dk as -s/dk,
// and adds s·v[i] to each of its rows: the products, sums and updates of
// the one-column Householder loop, so the factors match it bit for bit.
// lane >= 0 leaves the lanes up to it unchanged.
func reflectPanel(p, v []float64, dk float64, lane int) {
	var s0, s1, s2, s3 float64
	for i := 0; i < len(p); i += PanelWidth {
		vi, x := v[i], p[i:i+PanelWidth:i+PanelWidth]
		s0 += vi * x[0]
		s1 += vi * x[1]
		s2 += vi * x[2]
		s3 += vi * x[3]
	}
	s0, s1, s2, s3 = -s0/dk, -s1/dk, -s2/dk, -s3/dk
	if lane >= 0 {
		s := [PanelWidth]float64{s0, s1, s2, s3}
		for i := 0; i < len(p); i += PanelWidth {
			for l := lane + 1; l < PanelWidth; l++ {
				p[i+l] += s[l] * v[i]
			}
		}
		return
	}
	for i := 0; i < len(p); i += PanelWidth {
		vi, x := v[i], p[i:i+PanelWidth:i+PanelWidth]
		x[0] += s0 * vi
		x[1] += s1 * vi
		x[2] += s2 * vi
		x[3] += s3 * vi
	}
}
