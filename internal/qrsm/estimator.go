package qrsm

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	refitEvery int
	sinceRefit int
	version    uint64

	prep []*Model // Prepare scratch
}

// Estimates never fall below minEstimate seconds. Before any fit they are
// fallbackSecPerMB seconds per input megabyte, the synthetic workload's
// scale.
const (
	minEstimate      = 1
	fallbackSecPerMB = 2.0
)

// Version advances at every refit and whenever a class model first holds
// the 2·BasisSize samples Estimate requires before consulting it. Estimate
// is a pure function of (features, Version): observations only influence
// predictions after the next Refit or that eligibility step, so callers
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
		m := e.perClass[c]
		thin := !m.wellSampled()
		m.Observe(x, seconds)
		if thin && m.wellSampled() {
			// The class model may now answer for its class: estimates of
			// that class can change without a refit.
			e.version++
		}
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

// ClassBit is class c's bit in a Prepare mask. Classes without a model,
// negative or past the last bit, share the top bit, which Prepare reads as
// a job the global model estimates.
func ClassBit(c job.Class) uint64 {
	if c < 0 || c >= 63 {
		return 1 << 63
	}
	return 1 << uint(c)
}

// AllClasses is the Prepare mask of every class. Preparing it settles
// every fit an estimate can read, so Estimate then only reads: callers that
// cache a bootstrapped estimator as a prototype pay its factorizations
// once instead of once per clone, and any number of goroutines may clone
// the prototype at once.
const AllClasses = ^uint64(0)

// Prepare materializes, side by side, exactly the deferred fits that
// Estimate calls for jobs of the given classes (a mask of ClassBit) would
// run one at a time: a class model when it is well sampled; the global
// model when some class is not, has no model, or failed its fit. It never
// fits a model those estimates would skip, so a caller that goes on to
// estimate a job of every class it named sees the fits, and the model
// states, the lazy path would have produced. The engine names the jobs of
// one scheduling round, and relies on every built-in scheduler and
// reference twin estimating each job it is handed.
func (e *Estimator) Prepare(classes uint64) {
	ms := e.prep[:0]
	global := classes>>len(e.perClass) != 0
	for c, m := range e.perClass {
		if classes&(1<<c) == 0 {
			continue
		}
		if m.wellSampled() {
			ms = append(ms, m)
		} else {
			global = true
		}
	}
	if global {
		ms = append(ms, e.global)
	}
	e.prep = ms
	materializeAll(ms)
	if global {
		return
	}
	for c, m := range e.perClass {
		if classes&(1<<c) != 0 && !m.fitted {
			// WellDetermined is false: Estimate falls back to the global model.
			e.global.materialize()
			return
		}
	}
}

// materializeAll runs the deferred fits of ms. When two or more would
// factor and GOMAXPROCS allows, up to GOMAXPROCS goroutines, the caller
// included, pull models from a shared cursor, largest pending window
// first; otherwise the caller runs them inline. Each model owns its
// window, workspace and scratch, so the fits share no mutable state and
// every result is bit-identical to fitting them one at a time. No
// goroutine outlives the call: a panicking fit is re-raised on the caller
// once every helper has returned.
func materializeAll(ms []*Model) {
	n := 0
	for _, m := range ms {
		if m.fitPending() {
			ms[n] = m
			n++
		} else {
			m.materialize()
		}
	}
	ms = ms[:n]
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers < 2 {
		for _, m := range ms {
			m.materialize()
		}
		return
	}
	slices.SortStableFunc(ms, func(a, b *Model) int { return cmp.Compare(b.pendingN, a.pendingN) })
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed = len(ms) // index of the first panicking fit in pull order
		cause  any
	)
	work := func() {
		i := 0
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if i < failed {
					failed, cause = i, r
				}
				mu.Unlock()
			}
		}()
		for {
			if i = int(next.Add(1) - 1); i >= len(ms) {
				return
			}
			ms[i].materialize()
		}
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed < len(ms) {
		panic(cause)
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
//
// Estimate materializes the fits it reads. After Prepare of every class it
// only reads, which is what lets sweep workers share one prepared bootstrap
// prototype: any number of goroutines may clone it with CloneInto at once
// and estimate on their clones, as long as none observes or refits the
// prototype meanwhile.
func (e *Estimator) Estimate(f job.Features) float64 {
	x := f.Vector()
	if c := int(f.Class); c >= 0 && c < len(e.perClass) && e.perClass[c].WellDetermined() {
		return e.perClass[c].PredictClamped(x, minEstimate)
	}
	if e.global.Fitted() {
		return e.global.PredictClamped(x, minEstimate)
	}
	return max(fallbackSecPerMB*f.SizeMB, minEstimate)
}

// Factorizations counts the factorizations the estimator's models have run
// (Model.Factorizations). It moves exactly when a fit materializes.
func (e *Estimator) Factorizations() int {
	n := e.global.Factorizations()
	for _, m := range e.perClass {
		n += m.Factorizations()
	}
	return n
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
