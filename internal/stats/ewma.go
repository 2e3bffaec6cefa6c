package stats

import "fmt"

// EWMA is the exponentially weighted moving average the paper uses for the
// network speed estimator (Sec. III-A2):
//
//	S_n = alpha*Y_n + (1-alpha)*S_{n-1}
//
// The first observation initializes the average directly.
type EWMA struct {
	alpha float64
	value float64
	n     int
}

// NewEWMA returns an estimator with weight alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new measurement into the average and returns the updated
// value.
func (e *EWMA) Observe(y float64) float64 {
	if e.n == 0 {
		e.value = y
	} else {
		e.value = e.alpha*y + (1-e.alpha)*e.value
	}
	e.n++
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// N returns the number of observations folded in.
func (e *EWMA) N() int { return e.n }
