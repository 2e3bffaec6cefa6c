// Package linalg implements the small dense linear-algebra kernel needed to
// fit quadratic response surface models: Householder QR factorization and
// least-squares solving with optional ridge regularization. It is written
// against the standard library only.
package linalg

import "math"

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// norm2 returns the Euclidean norm of v[0], v[stride], v[2*stride], ...
func norm2(v []float64, stride int) float64 {
	// Scaled to avoid overflow on large magnitudes.
	var scale, ssq float64 = 0, 1
	for i := 0; i < len(v); i += stride {
		x := v[i]
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
