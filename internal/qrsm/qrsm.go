// Package qrsm implements the quadratic response surface model the paper
// uses to estimate job processing times (Sec. III-A1, Fig. 3):
//
//	y = a + Σ b_i·x_i + Σ_{i≠j} c_ij·x_i·x_j + Σ d_i·x_i²
//
// Coefficients are fit by ridge-stabilized least squares over observed
// (features, processing time) pairs. The paper solves a linear programming
// model; least squares is the standard RSM estimator (Myers & Montgomery,
// the paper's own reference [9]) and yields the same qualitative behaviour,
// including the occasional over/under-estimation the paper discusses.
// Features are standardized internally so the normal equations stay well
// conditioned for raw document attributes spanning several orders of
// magnitude.
package qrsm

import (
	"errors"
	"fmt"
	"math"

	"cloudburst/internal/linalg"
)

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("qrsm: model has not been fitted")

// ErrTooFewSamples is returned by Fit when observations < basis size.
var ErrTooFewSamples = errors.New("qrsm: not enough samples to fit")

// stackDim bounds the feature dimension whose standardized copy lives on
// the evaluating caller's stack (the estimator's document features have 9).
const stackDim = 12

// BasisSize returns the number of terms in the full quadratic basis for dim
// input features: intercept + linear + pairwise interactions + squares.
func BasisSize(dim int) int {
	return 1 + dim + dim*(dim-1)/2 + dim
}

// Model is a quadratic response surface over a fixed-dimension feature
// vector. The zero value is unusable; call New.
type Model struct {
	dim        int
	lambda     float64
	maxSamples int

	// Training window. Feature vectors are stored flat (sample i occupies
	// xd[i*dim : (i+1)*dim]): one slab grown amortized instead of one copy
	// allocation per Observe, and the fit loops scan contiguously. total
	// counts every observation ever made; the window holds the last
	// len(ys) of them. A fit's window is named by the total at its
	// request: the maxSamples observations before it, or all of them.
	xd    []float64
	ys    []float64
	total int

	fitted bool
	mean   []float64
	scale  []float64
	coef   []float64

	// R² and RMSE of the active fit. diagN > 0 means they are still owed
	// over the window ending at observation diagN: they are computed on
	// first read, or by Observe before it evicts a sample of that window.
	r2    float64
	rmse  float64
	diagN int

	fitDone    bool // at least one fit attempt since construction
	fitN       int  // window of the last fit attempt
	lastFitErr error
	fits       int // factorizations run, inherited by clones

	// Requested-fit state (RequestFit): a requested fit is materialized
	// when an accessor can observe its outcome, or when Observe is about to
	// evict a sample of its window. pendingN names that window, so the
	// materialized fit covers exactly the samples of the request.
	pending  bool
	pendingN int

	// Fit scratch. The workspace owns the design matrix: fit assembles the
	// basis straight into the factorization's buffer.
	std []float64 // a fit's candidate mean and scale, committed on success
	ws  linalg.Workspace
}

// Option configures a Model.
type Option func(*Model)

// WithRidge sets the ridge regularization strength (default 1e-6).
func WithRidge(lambda float64) Option {
	return func(m *Model) { m.lambda = lambda }
}

// WithWindow bounds the number of retained training samples; the oldest are
// discarded first. This is what lets the autonomic system "subsequently
// learn and tune the model" as conditions drift. Zero (default) keeps all.
func WithWindow(n int) Option {
	return func(m *Model) { m.maxSamples = n }
}

// New creates a model over dim-dimensional feature vectors.
func New(dim int, opts ...Option) *Model {
	if dim <= 0 {
		panic(fmt.Sprintf("qrsm: dimension %d must be positive", dim))
	}
	m := &Model{dim: dim, lambda: 1e-6}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Dim returns the feature dimension.
func (m *Model) Dim() int { return m.dim }

// NumSamples returns the number of retained observations.
func (m *Model) NumSamples() int { return len(m.ys) }

// Fitted reports whether a successful Fit has run.
func (m *Model) Fitted() bool {
	m.materialize()
	return m.fitted
}

// WellDetermined reports whether the model is fitted and the current
// training window holds at least twice as many samples as basis terms. A
// fit that merely satisfies n ≥ p interpolates its data and extrapolates
// wildly; callers choosing between models should prefer well-determined
// ones. The sample count is checked first, so a deferred fit on a model
// that is not well determined stays deferred: nobody reading through this
// gate can observe it.
func (m *Model) WellDetermined() bool {
	if !m.wellSampled() {
		return false
	}
	m.materialize()
	return m.fitted
}

// wellSampled reports whether the training window holds at least twice as
// many samples as basis terms.
func (m *Model) wellSampled() bool {
	return len(m.ys) >= 2*BasisSize(m.dim)
}

// Observe records a training pair. The feature slice is copied. On a full
// window it first settles a requested fit and owed diagnostics, which
// cover the oldest sample, and then evicts that sample.
func (m *Model) Observe(x []float64, y float64) {
	if len(x) != m.dim {
		panic(fmt.Sprintf("qrsm: observation dim %d, want %d", len(x), m.dim))
	}
	if m.maxSamples > 0 && len(m.ys) == m.maxSamples {
		m.materialize()
		m.computeDiagnostics()
		// Copy down instead of reslicing so the backing arrays stop growing
		// once the window is full.
		m.xd = m.xd[:copy(m.xd, m.xd[m.dim:])]
		m.ys = m.ys[:copy(m.ys, m.ys[1:])]
	}
	m.xd = append(m.xd, x...)
	m.ys = append(m.ys, y)
	m.total++
}

// window returns the retained samples of the window ending at observation
// end, which Observe keeps whole until its fit and diagnostics are settled.
func (m *Model) window(end int) (xs, ys []float64) {
	n := end
	if m.maxSamples > 0 {
		n = min(n, m.maxSamples)
	}
	hi := end - (m.total - len(m.ys))
	return m.xd[(hi-n)*m.dim : hi*m.dim], m.ys[hi-n : hi]
}

// Fit solves for the coefficients over all retained observations. It
// requires at least BasisSize(dim) samples.
func (m *Model) Fit() error {
	m.RequestFit()
	m.materialize()
	return m.lastFitErr
}

// RequestFit schedules a fit over the current training window without
// paying for the factorization now: the fit materializes lazily on the
// first accessor that could observe its outcome (Fitted, WellDetermined on
// a well-sampled model, Predict, PredictClamped, R2, RMSE, Coefficients, or
// Fit), or when Observe is about to evict one of its samples. Requests
// between two consultations collapse into the latest one — exactly the
// fits an eager caller would have computed and then overwritten — which is
// what makes a fixed refit cadence nearly free for models that are rarely
// consulted. On a full window every Observe evicts a sample of the
// request, so there each request runs at the next observation and none
// collapse. The request names its window by the observation count, so the
// deferred fit covers precisely the samples an eager fit would have seen.
func (m *Model) RequestFit() {
	m.pending = true
	m.pendingN = m.total
}

// fitPending reports whether materialize would factor: a fit is requested
// over a window the last fit attempt did not cover.
func (m *Model) fitPending() bool {
	return m.pending && !(m.fitDone && m.pendingN == m.fitN)
}

// materialize runs a requested fit, if one is outstanding. A request for
// the window the last fit attempt saw replays that attempt's outcome, which
// refitting would reproduce bit for bit.
func (m *Model) materialize() {
	if !m.pending {
		return
	}
	m.pending = false
	if m.fitDone && m.pendingN == m.fitN {
		return
	}
	m.lastFitErr = m.fit(m.pendingN)
	m.fitDone = true
	m.fitN = m.pendingN
}

// fit solves over the window ending at observation end. The window's mean
// and scale go to scratch first and replace the active fit's only when the
// solve succeeds: a failed fit leaves the previous fit whole.
func (m *Model) fit(end int) error {
	xs, ys := m.window(end)
	n, p := len(ys), BasisSize(m.dim)
	if n < p {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewSamples, n, p)
	}
	if m.std == nil {
		m.std = make([]float64, 2*m.dim)
	}
	mean, scale := m.std[:m.dim], m.std[m.dim:]
	for j := 0; j < m.dim; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[i*m.dim+j]
		}
		mean[j] = s / float64(n)
		var v float64
		for i := 0; i < n; i++ {
			d := xs[i*m.dim+j] - mean[j]
			v += d * d
		}
		scale[j] = math.Sqrt(v / float64(n))
		if scale[j] == 0 {
			scale[j] = 1 // constant feature: center only
		}
	}
	a, ld := m.ws.Design(n, p)
	m.designInto(a, ld, xs, n, mean, scale)
	m.fits++
	coef, err := m.ws.RidgeSolve(ys, m.lambda)
	if err != nil {
		return fmt.Errorf("qrsm: fit failed: %w", err)
	}
	if m.mean == nil {
		m.mean = make([]float64, m.dim)
		m.scale = make([]float64, m.dim)
	}
	copy(m.mean, mean)
	copy(m.scale, scale)
	m.coef = append(m.coef[:0], coef...) // the workspace owns coef's backing
	m.fitted = true
	m.diagN = end
	return nil
}

// designInto writes the quadratic basis of the n samples in xs,
// standardized by mean and scale, into the workspace's panel buffer a
// (panels of ld rows, see linalg.PanelOffset), column by column in the
// basis term order: intercept, linear terms, pairwise interactions,
// squares. Each entry is the same expression eval multiplies by its
// coefficient.
func (m *Model) designInto(a []float64, ld int, xs []float64, n int, mean, scale []float64) {
	const w = linalg.PanelWidth
	// col(j)[w*i] is row i of column j.
	col := func(j int) []float64 {
		off := linalg.PanelOffset(j, ld)
		return a[off : off+w*(n-1)+1]
	}
	ones := col(0)
	for r := 0; r < len(ones); r += w {
		ones[r] = 1
	}
	for j := 0; j < m.dim; j++ {
		zj := col(1 + j)
		for i := 0; i < n; i++ {
			zj[w*i] = (xs[i*m.dim+j] - mean[j]) / scale[j]
		}
	}
	k := 1 + m.dim
	for i := 0; i < m.dim; i++ {
		zi := col(1 + i)
		for j := i + 1; j < m.dim; j++ {
			zj, out := col(1+j), col(k)
			for r := 0; r < len(out); r += w {
				out[r] = zi[r] * zj[r]
			}
			k++
		}
	}
	for i := 0; i < m.dim; i++ {
		zi, out := col(1+i), col(k)
		for r := 0; r < len(out); r += w {
			out[r] = zi[r] * zi[r]
		}
		k++
	}
}

// eval evaluates the active fit at x: it standardizes x into a buffer on
// the stack (the heap past stackDim features) and adds up each basis term
// times its coefficient in the basis term order, starting from zero — the
// products and the summation order of linalg.Dot over the expanded basis
// row, so the result matches it bit for bit. It only reads the model, so
// concurrent evaluations of a settled model are safe.
func (m *Model) eval(x []float64) float64 {
	var zs [stackDim]float64
	var z []float64
	if m.dim <= stackDim {
		z = zs[:m.dim]
	} else {
		z = make([]float64, m.dim)
	}
	for i := range z {
		z[i] = (x[i] - m.mean[i]) / m.scale[i]
	}
	c := m.coef
	var s float64
	s += 1 * c[0]
	for i, zi := range z {
		s += zi * c[1+i]
	}
	k := 1 + m.dim
	for i, zi := range z {
		for _, zj := range z[i+1:] {
			s += zi * zj * c[k]
			k++
		}
	}
	for _, zi := range z {
		s += zi * zi * c[k]
		k++
	}
	return s
}

// computeDiagnostics evaluates the owed R² and RMSE of the active fit over
// the window it covered; it does nothing when none are owed.
func (m *Model) computeDiagnostics() {
	if m.diagN == 0 {
		return
	}
	xs, ys := m.window(m.diagN)
	m.diagN = 0
	n := len(ys)
	var sse, sst, meanY float64
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(n)
	for i, y := range ys {
		d := y - m.eval(xs[i*m.dim:(i+1)*m.dim])
		sse += d * d
		dy := y - meanY
		sst += dy * dy
	}
	m.rmse = math.Sqrt(sse / float64(n))
	if sst > 0 {
		m.r2 = 1 - sse/sst
	} else {
		m.r2 = 0
	}
}

// Predict evaluates the fitted surface at x. It materializes a requested
// fit first, so it is safe for concurrent use only on a model with no fit
// pending.
func (m *Model) Predict(x []float64) (float64, error) {
	m.materialize()
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != m.dim {
		panic(fmt.Sprintf("qrsm: predict dim %d, want %d", len(x), m.dim))
	}
	return m.eval(x), nil
}

// PredictClamped evaluates the surface and clamps the result to at least
// floor. Processing-time estimates must stay positive no matter how far a
// query sits from the training cloud.
func (m *Model) PredictClamped(x []float64, floor float64) float64 {
	v, err := m.Predict(x)
	if err != nil || math.IsNaN(v) || v < floor {
		return floor
	}
	return v
}

// R2 returns the coefficient of determination on the training window
// (meaningful only after Fit).
func (m *Model) R2() float64 {
	m.materialize()
	m.computeDiagnostics()
	return m.r2
}

// SettledR2 returns the R² of the most recently materialized fit without
// forcing a pending deferred fit to run. It reflects the model state that
// actually served predictions — a fit that was requested but never
// consulted does not exist yet, and a diagnostics reader should not be the
// one to pay for its factorization.
func (m *Model) SettledR2() float64 {
	m.computeDiagnostics()
	return m.r2
}

// RMSE returns the root-mean-square training error (after Fit).
func (m *Model) RMSE() float64 {
	m.materialize()
	m.computeDiagnostics()
	return m.rmse
}

// Factorizations counts the ridge factorizations the model has run, its
// clones' included: a census of which fits materialized.
func (m *Model) Factorizations() int { return m.fits }

// Coefficients returns a copy of the fitted basis coefficients in the order
// [intercept, linear..., interactions..., squares...].
func (m *Model) Coefficients() []float64 {
	m.materialize()
	return append([]float64(nil), m.coef...)
}

// CloneInto copies the model's semantic state — training window, fit
// results, deferred-fit bookkeeping — into dst, reusing dst's slabs where
// capacity allows, and returns dst (allocating one when nil). Fit scratch
// is not copied; the clone lazily grows its own. Cloning a fitted
// prototype is how the engine arena avoids re-running the bootstrap fit for
// every pooled run.
func (m *Model) CloneInto(dst *Model) *Model {
	if dst == nil {
		dst = &Model{}
	}
	dst.dim, dst.lambda, dst.maxSamples = m.dim, m.lambda, m.maxSamples
	dst.xd = append(dst.xd[:0], m.xd...)
	dst.ys = append(dst.ys[:0], m.ys...)
	dst.total = m.total
	dst.fitted = m.fitted
	if m.mean == nil {
		// fit's nil check allocates mean/scale as a sized pair.
		dst.mean, dst.scale = nil, nil
	} else {
		dst.mean = append(dst.mean[:0], m.mean...)
		dst.scale = append(dst.scale[:0], m.scale...)
	}
	dst.coef = append(dst.coef[:0], m.coef...)
	dst.r2, dst.rmse, dst.diagN = m.r2, m.rmse, m.diagN
	dst.fitDone, dst.fitN = m.fitDone, m.fitN
	dst.lastFitErr, dst.fits = m.lastFitErr, m.fits
	dst.pending, dst.pendingN = m.pending, m.pendingN
	return dst
}
