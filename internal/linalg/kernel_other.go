//go:build !amd64

package linalg

func hasAVX2() bool { return false }

func blockAVX2(c *float64, pstride, npan int, v *float64, rs *reflector, nr, lane int) {
	panic("linalg: no AVX2 kernel on this architecture")
}
