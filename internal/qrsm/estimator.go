package qrsm

import (
	"cloudburst/internal/job"
)

// Estimator is the processing-time oracle the schedulers consult. It keeps
// a global QRSM over all observed jobs plus one per job class (the paper
// extracts "a relevant set of features … for every job type"), refits
// periodically as completions stream in, and falls back to a
// seconds-per-megabyte heuristic until enough data accumulates.
//
// Estimates are for a standard (speed 1.0) machine; callers divide by the
// target machine's speed factor.
type Estimator struct {
	global     *Model
	perClass   []*Model
	floor      float64
	fallbackMB float64 // seconds per input megabyte before any fit
	refitEvery int
	sinceRefit int
	version    uint64
}

// Version counts refits. Estimate is a pure function of (features, Version):
// observations only influence predictions after the next Refit, so callers
// may cache estimates keyed by job and version and stay bit-identical.
func (e *Estimator) Version() uint64 { return e.version }

// EstimatorOption configures an Estimator.
type EstimatorOption func(*Estimator)

// WithRefitEvery sets how many observations trigger an automatic refit
// (default 25).
func WithRefitEvery(n int) EstimatorOption {
	return func(e *Estimator) {
		if n > 0 {
			e.refitEvery = n
		}
	}
}

// WithFallbackRate sets the pre-fit heuristic in seconds per input megabyte
// (default 2.0, matching the synthetic workload's scale).
func WithFallbackRate(secPerMB float64) EstimatorOption {
	return func(e *Estimator) { e.fallbackMB = secPerMB }
}

// WithFloor sets the minimum returned estimate in seconds (default 1).
func WithFloor(floor float64) EstimatorOption {
	return func(e *Estimator) { e.floor = floor }
}

// WithModelWindow bounds each underlying model's training window.
func WithModelWindow(n int) EstimatorOption {
	return func(e *Estimator) {
		e.global = New(featureDim, WithWindow(n))
		for i := range e.perClass {
			e.perClass[i] = New(featureDim, WithWindow(n))
		}
	}
}

var featureDim = len(job.Features{}.Vector())

// NewEstimator returns an estimator with no training data.
func NewEstimator(opts ...EstimatorOption) *Estimator {
	e := &Estimator{
		global:     New(featureDim),
		perClass:   make([]*Model, job.NumClasses),
		floor:      1,
		fallbackMB: 2.0,
		refitEvery: 25,
	}
	for i := range e.perClass {
		e.perClass[i] = New(featureDim)
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Observe records an actual processing time (standard-machine seconds) for
// a job's features and refits when the refit cadence is due.
func (e *Estimator) Observe(f job.Features, seconds float64) {
	x := f.Vector()
	e.global.Observe(x, seconds)
	if c := int(f.Class); c >= 0 && c < len(e.perClass) {
		e.perClass[c].Observe(x, seconds)
	}
	e.sinceRefit++
	if e.sinceRefit >= e.refitEvery {
		e.Refit()
	}
}

// Refit refits every model that has enough samples. Fit errors (too few
// samples) are expected early on and simply leave the previous fit active.
//
// The fits are requested, not computed: each model materializes its fit on
// the next consultation (RequestFit), so back-to-back refit cadences with
// no intervening Estimate collapse into the one factorization an eager
// caller would actually have observed. The Version contract is unchanged —
// Estimate remains a pure function of (features, Version) — because the
// deferred fit covers exactly the window snapshotted at request time.
func (e *Estimator) Refit() {
	e.sinceRefit = 0
	e.version++
	e.global.RequestFit()
	for _, m := range e.perClass {
		m.RequestFit()
	}
}

// Materialize forces every deferred fit an estimate can observe to run
// now: the global model's and those of well-determined class models.
// Estimate never consults a class model holding fewer than 2·BasisSize
// samples, so its deferred fit stays deferred and is never factored unless
// a later read can see it. Callers that cache a bootstrapped estimator as a
// prototype use this to pay the bootstrap factorizations once instead of
// once per clone; the sharded fan-out uses it before concurrent reads.
func (e *Estimator) Materialize() {
	e.global.materialize()
	for _, m := range e.perClass {
		if m.wellSampled() {
			m.materialize()
		}
	}
}

// CloneInto deep-copies the estimator's semantic state into dst, reusing
// dst's model slabs where capacity allows, and returns dst (allocating one
// when nil). The clone shares no mutable state with the receiver.
func (e *Estimator) CloneInto(dst *Estimator) *Estimator {
	if dst == nil {
		dst = &Estimator{}
	}
	dst.global = e.global.CloneInto(dst.global)
	if len(dst.perClass) != len(e.perClass) {
		dst.perClass = make([]*Model, len(e.perClass))
	}
	for i, m := range e.perClass {
		dst.perClass[i] = m.CloneInto(dst.perClass[i])
	}
	dst.floor = e.floor
	dst.fallbackMB = e.fallbackMB
	dst.refitEvery = e.refitEvery
	dst.sinceRefit = e.sinceRefit
	dst.version = e.version
	return dst
}

// Bootstrap seeds the estimator from a standard production dataset — the
// paper "starts with an initial best estimate model based on a standard set
// of production data" — and fits immediately.
func (e *Estimator) Bootstrap(features []job.Features, seconds []float64) {
	if len(features) != len(seconds) {
		panic("qrsm: bootstrap length mismatch")
	}
	for i := range features {
		x := features[i].Vector()
		e.global.Observe(x, seconds[i])
		if c := int(features[i].Class); c >= 0 && c < len(e.perClass) {
			e.perClass[c].Observe(x, seconds[i])
		}
	}
	e.Refit()
}

// Estimate returns the predicted standard-machine processing time for a job
// with the given features. Preference order: well-determined class model,
// fitted global model, size heuristic. A class model that merely
// interpolates its few samples is skipped — its edge behaviour is wild.
func (e *Estimator) Estimate(f job.Features) float64 {
	x := f.Vector()
	if c := int(f.Class); c >= 0 && c < len(e.perClass) && e.perClass[c].WellDetermined() {
		return e.perClass[c].PredictClamped(x, e.floor)
	}
	if e.global.Fitted() {
		return e.global.PredictClamped(x, e.floor)
	}
	v := e.fallbackMB * f.SizeMB
	if v < e.floor {
		return e.floor
	}
	return v
}

// EstimateConcurrent is Estimate for the sharded fan-out: the same model
// preference order and the same arithmetic — the two agree bit for bit —
// but every prediction uses caller-local buffers instead of the models'
// shared scratch, so any number of goroutines may estimate simultaneously.
// The estimator must be Materialized first and must not be observed,
// refit or cloned while concurrent readers are active; an unmaterialized
// model panics rather than racing.
func (e *Estimator) EstimateConcurrent(f job.Features) float64 {
	x := f.Vector()
	if c := int(f.Class); c >= 0 && c < len(e.perClass) && e.perClass[c].wellDeterminedRead() {
		return e.perClass[c].predictClampedConcurrent(x, e.floor)
	}
	if e.global.fittedRead() {
		return e.global.predictClampedConcurrent(x, e.floor)
	}
	v := e.fallbackMB * f.SizeMB
	if v < e.floor {
		return e.floor
	}
	return v
}

// GlobalModel exposes the global QRSM for diagnostics (Fig. 3 reports the
// fitted surface).
func (e *Estimator) GlobalModel() *Model { return e.global }

// ClassModel returns the per-class model for c, or nil for an unknown class.
func (e *Estimator) ClassModel(c job.Class) *Model {
	if int(c) < 0 || int(c) >= len(e.perClass) {
		return nil
	}
	return e.perClass[c]
}
