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

// stackDim bounds the feature dimension whose concurrent-prediction scratch
// lives on the stack (the estimator's document features have 9), and
// stackBasis is its basis size.
const (
	stackDim   = 12
	stackBasis = 1 + stackDim + stackDim*(stackDim-1)/2 + stackDim
)

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

	// Training pairs. Feature vectors are stored flat (sample i occupies
	// xd[i*dim : (i+1)*dim]): one slab grown amortized instead of one copy
	// allocation per Observe, and the fit loops scan contiguously.
	xd []float64
	ys []float64

	fitted bool
	mean   []float64
	scale  []float64
	coef   []float64

	// R² and RMSE of the active fit. diagN > 0 means they are still owed
	// over the first diagN samples: unbounded windows compute them on first
	// read, since those samples and the fit's mean, scale and coef stay
	// intact until the next successful fit replaces the debt. Windowed
	// models compute them at fit time, because Observe slides the samples.
	r2    float64
	rmse  float64
	diagN int

	// dirty is set by Observe and cleared by Fit: a fit over an unchanged
	// window reproduces the previous result exactly, so Fit skips the
	// factorization and replays its outcome. This makes the estimator's
	// periodic "refit everything" cadence cheap for quiet per-class models.
	dirty      bool
	fitDone    bool // at least one fit attempt since construction
	fitN       int  // samples covered by the last fit attempt
	lastFitErr error
	fits       int // factorizations run, inherited by clones

	// Deferred-fit state (RequestFit): a requested fit is only materialized
	// when an accessor can observe its outcome. pendingN snapshots the
	// window length at request time so the materialized fit reproduces the
	// eager fit bit for bit even if observations arrived since.
	pending  bool
	pendingN int

	// Scratch reused across Fit/Predict calls; the model is single-threaded
	// by design (Observe already mutates shared state), so this is safe.
	// The workspace owns the design matrix: fit assembles the basis straight
	// into the factorization's buffer.
	zbuf []float64 // standardized features
	bbuf []float64 // expanded basis row
	std  []float64 // a fit's candidate mean and scale, committed on success
	ws   linalg.Workspace
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

// Observe records a training pair. The feature slice is copied.
func (m *Model) Observe(x []float64, y float64) {
	if len(x) != m.dim {
		panic(fmt.Sprintf("qrsm: observation dim %d, want %d", len(x), m.dim))
	}
	m.xd = append(m.xd, x...)
	m.ys = append(m.ys, y)
	if m.maxSamples > 0 && len(m.ys) > m.maxSamples {
		// Copy down instead of reslicing so the backing arrays stop growing
		// once the window is full.
		drop := len(m.ys) - m.maxSamples
		m.xd = m.xd[:copy(m.xd, m.xd[drop*m.dim:])]
		m.ys = m.ys[:copy(m.ys, m.ys[drop:])]
	}
	m.dirty = true
}

// sample returns the i-th retained feature vector (a view into the slab).
func (m *Model) sample(i int) []float64 {
	return m.xd[i*m.dim : (i+1)*m.dim]
}

// basisInto expands a standardized feature vector into the quadratic basis,
// writing into out (length BasisSize(len(z))): intercept, linear terms,
// pairwise interactions, squares.
func basisInto(z, out []float64) {
	dim := len(z)
	out[0] = 1
	copy(out[1:1+dim], z)
	k := 1 + dim
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			out[k] = z[i] * z[j]
			k++
		}
	}
	for i := 0; i < dim; i++ {
		out[k] = z[i] * z[i]
		k++
	}
}

// standardizeInto centers and scales x into z (length m.dim).
func (m *Model) standardizeInto(x, z []float64) {
	for i := range z {
		z[i] = (x[i] - m.mean[i]) / m.scale[i]
	}
}

// scratch returns the reusable standardize/basis buffers, allocating them on
// first use.
func (m *Model) scratch() ([]float64, []float64) {
	if m.zbuf == nil {
		m.zbuf = make([]float64, m.dim)
		m.bbuf = make([]float64, BasisSize(m.dim))
	}
	return m.zbuf, m.bbuf
}

// Fit solves for the coefficients over all retained observations. It
// requires at least BasisSize(dim) samples.
func (m *Model) Fit() error {
	m.pending = false
	if !m.dirty && m.fitDone {
		// Unchanged training window: the factorization would reproduce the
		// previous coefficients (and error) bit for bit. Replay the outcome.
		return m.lastFitErr
	}
	err := m.fit(len(m.ys))
	m.dirty = false
	m.fitDone = true
	m.fitN = len(m.ys)
	m.lastFitErr = err
	return err
}

// RequestFit schedules a fit over the current training window without
// paying for the factorization now: the fit materializes lazily on the
// first accessor that could observe its outcome (Fitted, WellDetermined on
// a well-sampled model, Predict, PredictClamped, R2, RMSE, Coefficients, or
// Fit). Requests
// between two consultations collapse into the latest one — exactly the
// fits an eager caller would have computed and then overwritten — which is
// what makes a fixed refit cadence nearly free for models that are rarely
// consulted. The window length is snapshotted at request time, so the
// deferred fit covers precisely the samples an eager fit would have seen.
//
// Windowed models (WithWindow) fit eagerly instead: once the window
// slides, the snapshot this request names could no longer be reconstructed.
func (m *Model) RequestFit() {
	if m.maxSamples > 0 {
		_ = m.Fit()
		return
	}
	m.pending = true
	m.pendingN = len(m.ys)
}

// fitPending reports whether materialize would factor: a fit is requested
// over a window the last fit attempt did not cover.
func (m *Model) fitPending() bool {
	return m.pending && !(m.fitDone && m.pendingN == m.fitN)
}

// materialize runs a deferred RequestFit, if one is outstanding.
func (m *Model) materialize() {
	if !m.pending {
		return
	}
	m.pending = false
	n := m.pendingN
	if m.fitDone && n == m.fitN {
		// The append-only window at length n is the window the last fit
		// attempt saw; refitting would replay the same outcome bit for bit.
		m.dirty = len(m.ys) > n
		return
	}
	m.lastFitErr = m.fit(n)
	m.fitDone = true
	m.fitN = n
	// Samples observed after the snapshot still await a future fit.
	m.dirty = len(m.ys) > n
}

// fit solves over the first n retained observations (the full window for
// eager fits, the request-time snapshot for deferred ones). The window's
// mean and scale go to scratch first and replace the active fit's only
// when the solve succeeds: a failed fit leaves the previous fit whole.
func (m *Model) fit(n int) error {
	p := BasisSize(m.dim)
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
			s += m.xd[i*m.dim+j]
		}
		mean[j] = s / float64(n)
		var v float64
		for i := 0; i < n; i++ {
			d := m.xd[i*m.dim+j] - mean[j]
			v += d * d
		}
		scale[j] = math.Sqrt(v / float64(n))
		if scale[j] == 0 {
			scale[j] = 1 // constant feature: center only
		}
	}
	a, stride := m.ws.Design(n, p)
	m.designInto(a, stride, n, mean, scale)
	m.fits++
	coef, err := m.ws.RidgeSolve(m.ys[:n], m.lambda)
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
	m.diagN = n
	if m.maxSamples > 0 {
		m.computeDiagnostics()
	}
	return nil
}

// designInto writes the quadratic basis of the first n samples,
// standardized by mean and scale, into the column-major design a (column j
// at a[j*stride:]), column by column in basisInto's term order. Every entry
// is the same expression basisInto evaluates, so the design is
// bit-identical to stacking basis rows.
func (m *Model) designInto(a []float64, stride, n int, mean, scale []float64) {
	col := func(j int) []float64 { return a[j*stride : j*stride+n] }
	ones := col(0)
	for i := range ones {
		ones[i] = 1
	}
	for j := 0; j < m.dim; j++ {
		zj := col(1 + j)
		for i := range zj {
			zj[i] = (m.xd[i*m.dim+j] - mean[j]) / scale[j]
		}
	}
	k := 1 + m.dim
	for i := 0; i < m.dim; i++ {
		zi := col(1 + i)
		for j := i + 1; j < m.dim; j++ {
			zj, out := col(1+j), col(k)
			for r := range out {
				out[r] = zi[r] * zj[r]
			}
			k++
		}
	}
	for i := 0; i < m.dim; i++ {
		zi, out := col(1+i), col(k)
		for r := range out {
			out[r] = zi[r] * zi[r]
		}
		k++
	}
}

// computeDiagnostics evaluates the owed R² and RMSE of the active fit over
// the diagN samples it covered; it does nothing when none are owed.
func (m *Model) computeDiagnostics() {
	n := m.diagN
	if n == 0 {
		return
	}
	m.diagN = 0
	var sse, sst, meanY float64
	for _, y := range m.ys[:n] {
		meanY += y
	}
	meanY /= float64(n)
	z, b := m.scratch()
	for i := 0; i < n; i++ {
		m.standardizeInto(m.sample(i), z)
		basisInto(z, b)
		pred := linalg.Dot(b, m.coef)
		d := m.ys[i] - pred
		sse += d * d
		dy := m.ys[i] - meanY
		sst += dy * dy
	}
	m.rmse = math.Sqrt(sse / float64(n))
	if sst > 0 {
		m.r2 = 1 - sse/sst
	} else {
		m.r2 = 0
	}
}

// Predict evaluates the fitted surface at x. Like Observe/Fit it is not
// safe for concurrent use.
func (m *Model) Predict(x []float64) (float64, error) {
	m.materialize()
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != m.dim {
		panic(fmt.Sprintf("qrsm: predict dim %d, want %d", len(x), m.dim))
	}
	z, b := m.scratch()
	m.standardizeInto(x, z)
	basisInto(z, b)
	return linalg.Dot(b, m.coef), nil
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

// predictConcurrent evaluates the surface like Predict but with
// caller-local buffers instead of the model's scratch, so any number of
// goroutines may consult a *materialized* model simultaneously (sharded
// placement rounds materialize first, then treat the estimator as
// read-only for the duration of the fan-out). The arithmetic is identical
// to Predict's, so the two paths agree bit for bit.
//
// The buffers live on the caller's stack when the model is at most stackDim
// wide, so the sharded fan-out's per-job estimates allocate nothing.
func (m *Model) predictConcurrent(x []float64) (float64, error) {
	if m.pending {
		// A deferred fit would mutate under the readers; that is a caller
		// bug, not a recoverable condition.
		panic("qrsm: concurrent predict on an unmaterialized model")
	}
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != m.dim {
		panic(fmt.Sprintf("qrsm: predict dim %d, want %d", len(x), m.dim))
	}
	var zs [stackDim]float64
	var bs [stackBasis]float64
	var z, b []float64
	if m.dim <= stackDim {
		z, b = zs[:m.dim], bs[:BasisSize(m.dim)]
	} else {
		z, b = make([]float64, m.dim), make([]float64, BasisSize(m.dim))
	}
	m.standardizeInto(x, z)
	basisInto(z, b)
	return linalg.Dot(b, m.coef), nil
}

// predictClampedConcurrent is PredictClamped over the concurrent-safe
// prediction path.
func (m *Model) predictClampedConcurrent(x []float64, floor float64) float64 {
	v, err := m.predictConcurrent(x)
	if err != nil || math.IsNaN(v) || v < floor {
		return floor
	}
	return v
}

// fittedRead and wellDeterminedRead mirror Fitted/WellDetermined without
// the materialize step, for concurrent readers of a materialized model.
func (m *Model) fittedRead() bool {
	if m.pending {
		panic("qrsm: concurrent read of an unmaterialized model")
	}
	return m.fitted
}

// wellDeterminedRead checks the sample count first, like WellDetermined, so
// a model that is not well determined may still hold a deferred fit.
func (m *Model) wellDeterminedRead() bool {
	return m.wellSampled() && m.fittedRead()
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
// capacity allows, and returns dst (allocating one when nil). Scratch
// buffers are not copied; the clone lazily grows its own. Cloning a fitted
// prototype is how the engine arena avoids re-running the bootstrap fit for
// every pooled run.
func (m *Model) CloneInto(dst *Model) *Model {
	if dst == nil {
		dst = &Model{}
	}
	dst.dim, dst.lambda, dst.maxSamples = m.dim, m.lambda, m.maxSamples
	dst.xd = append(dst.xd[:0], m.xd...)
	dst.ys = append(dst.ys[:0], m.ys...)
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
	dst.dirty, dst.fitDone, dst.fitN = m.dirty, m.fitDone, m.fitN
	dst.lastFitErr, dst.fits = m.lastFitErr, m.fits
	dst.pending, dst.pendingN = m.pending, m.pendingN
	return dst
}
