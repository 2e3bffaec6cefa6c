package qrsm

import (
	"errors"
	"math"
	"sync"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/linalg"
	"cloudburst/internal/stats"
)

// synthFeatures builds a plausible document feature vector.
func synthFeatures(g *stats.RNG, class job.Class) job.Features {
	size := g.Uniform(1, 300)
	pages := math.Max(1, size*g.Uniform(0.3, 0.6))
	images := pages * g.Uniform(0.5, 3)
	return job.Features{
		SizeMB: size, Pages: pages, Images: images,
		AvgImageMB:    size * 0.6 / math.Max(1, images),
		ImagesPerPage: images / pages,
		ResolutionDPI: g.TruncNormal(300, 150, 72, 1200),
		ColorFraction: g.Float64(),
		TextRatio:     g.Float64(),
		Coverage:      g.Uniform(0.2, 1),
		Class:         class,
	}
}

// synthTruth is a quadratic ground-truth processing time.
func synthTruth(f job.Features) float64 {
	return 20 + 1.5*f.SizeMB + 0.8*f.Images + 0.004*f.SizeMB*f.SizeMB +
		0.05*f.ResolutionDPI*f.ColorFraction + 30*f.Coverage
}

func TestEstimatorFallbackBeforeData(t *testing.T) {
	e := NewEstimator()
	f := job.Features{SizeMB: 50}
	if got := e.Estimate(f); got != 100 {
		t.Fatalf("fallback estimate = %v, want 100", got)
	}
	f.SizeMB = 0.1
	if got := e.Estimate(f); got != 1 {
		t.Fatalf("floored fallback = %v, want 1", got)
	}
}

func TestEstimatorBootstrapThenAccurate(t *testing.T) {
	g := stats.NewRNG(10)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Class(i%job.NumClasses))
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.05))
	}
	e.Bootstrap(fs, ys)
	if !e.GlobalModel().Fitted() {
		t.Fatal("global model not fitted after 300-sample bootstrap")
	}
	var relErr stats.Summary
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Marketing)
		want := synthTruth(f)
		got := e.Estimate(f)
		relErr.Add(math.Abs(got-want) / want)
	}
	if relErr.Mean() > 0.15 {
		t.Fatalf("mean relative error = %v, want < 0.15", relErr.Mean())
	}
}

func TestEstimatorBootstrapLengthMismatchPanics(t *testing.T) {
	e := NewEstimator()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	e.Bootstrap(make([]job.Features, 2), make([]float64, 3))
}

func TestEstimatorOnlineRefit(t *testing.T) {
	g := stats.NewRNG(11)
	e := NewEstimator(WithRefitEvery(10))
	// Stream enough observations that auto-refit fires (needs 55+ for the
	// 9-feature model).
	for i := 0; i < 120; i++ {
		f := synthFeatures(g, job.Book)
		e.Observe(f, synthTruth(f))
	}
	if !e.GlobalModel().Fitted() {
		t.Fatal("auto-refit never fitted the global model")
	}
	f := synthFeatures(g, job.Book)
	got := e.Estimate(f)
	want := synthTruth(f)
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("online estimate = %v, want ≈%v", got, want)
	}
}

func TestEstimatorPerClassPreferred(t *testing.T) {
	g := stats.NewRNG(12)
	e := NewEstimator(WithRefitEvery(1000)) // manual refit only
	// Class-specific truth: statements are much cheaper than the global mix.
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Statement)
		e.Observe(f, 0.1*synthTruth(f))
	}
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Book)
		e.Observe(f, synthTruth(f))
	}
	e.Refit()
	f := synthFeatures(g, job.Statement)
	got := e.Estimate(f)
	want := 0.1 * synthTruth(f)
	if math.Abs(got-want)/want > 0.3 {
		t.Fatalf("per-class estimate = %v, want ≈%v (class model should win)", got, want)
	}
}

func TestEstimatorEstimatePositive(t *testing.T) {
	g := stats.NewRNG(13)
	e := NewEstimator()
	for i := 0; i < 100; i++ {
		f := synthFeatures(g, job.Newspaper)
		e.Observe(f, synthTruth(f))
	}
	e.Refit()
	// Far-out-of-distribution query must still be positive.
	f := job.Features{SizeMB: 100000, Pages: 1, ResolutionDPI: 72}
	if got := e.Estimate(f); got <= 0 {
		t.Fatalf("estimate = %v, must be positive", got)
	}
}

func TestClassModelAccessor(t *testing.T) {
	e := NewEstimator()
	if e.ClassModel(job.Book) == nil {
		t.Fatal("ClassModel(Book) = nil")
	}
	if e.ClassModel(job.Class(-1)) != nil || e.ClassModel(job.Class(99)) != nil {
		t.Fatal("out-of-range class should return nil")
	}
}

func TestEstimatorErrorsEchoPaperBehaviour(t *testing.T) {
	// The paper notes the QRSM "occasionally overestimates". With noisy
	// training data the estimator must produce errors in both directions —
	// this is what drives the robustness differences between schedulers.
	g := stats.NewRNG(14)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Marketing)
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.25))
	}
	e.Bootstrap(fs, ys)
	over, under := 0, 0
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Marketing)
		truth := synthTruth(f) * g.LogNormalMeanCV(1, 0.25)
		if e.Estimate(f) > truth {
			over++
		} else {
			under++
		}
	}
	if over == 0 || under == 0 {
		t.Fatalf("estimator should err both ways: over=%d under=%d", over, under)
	}
}

// preparedEstimator bootstraps an estimator on two classes and prepares
// every class, so its reads cover a well-determined class model (class 0)
// and the global model standing in for a thin class (class 4).
func preparedEstimator(t *testing.T, g *stats.RNG) *Estimator {
	t.Helper()
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 400; i++ {
		f := synthFeatures(g, job.Class(i%2))
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.05))
	}
	e.Bootstrap(fs, ys)
	e.Prepare(AllClasses)
	if !e.perClass[0].WellDetermined() || e.perClass[4].WellDetermined() {
		t.Fatal("probes must cover a class model and the global model")
	}
	return e
}

// TestConcurrentClonesMatchEstimate pins the estimator's one concurrent
// use: sweep workers clone one shared, prepared bootstrap prototype at once
// (engine/arena.go) and estimate on their clones. Eight goroutines do that
// here (the -race leg makes this a real concurrency check); their estimates
// must agree bit for bit with serial ones on every model-selection branch
// (well-determined class model, global model for a thin class, size
// fallback), and neither the prototype nor a clone may run a fit.
func TestConcurrentClonesMatchEstimate(t *testing.T) {
	g := stats.NewRNG(21)
	proto := preparedEstimator(t, g)
	probes := make([]job.Features, 64)
	for i := range probes {
		probes[i] = synthFeatures(g, job.Class(i%job.NumClasses))
	}
	want := make([]float64, len(probes))
	for i, f := range probes {
		want[i] = proto.Estimate(f)
	}
	fits := proto.Factorizations()
	var wg sync.WaitGroup
	bad := make([]int, 8)
	for w := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := proto.CloneInto(nil)
			for i, f := range probes {
				if math.Float64bits(c.Estimate(f)) != math.Float64bits(want[i]) {
					bad[w]++
				}
			}
			if c.Factorizations() != fits {
				bad[w]++
			}
		}()
	}
	wg.Wait()
	for w, n := range bad {
		if n > 0 {
			t.Fatalf("clone %d: %d estimates differ from the serial ones or it ran a fit", w, n)
		}
	}
	if got := proto.Factorizations(); got != fits {
		t.Fatalf("cloning the prototype ran %d fits", got-fits)
	}
	// Cold estimator: the size fallback.
	cold := NewEstimator()
	cold.Prepare(AllClasses)
	if got := cold.CloneInto(nil).Estimate(job.Features{SizeMB: 50}); got != 100 {
		t.Fatalf("fallback estimate = %v, want 100", got)
	}
}

// TestEstimateConcurrentAllocationFree pins the per-job estimate on a
// prepared estimator: its scratch lives on the caller's stack, on the
// class-model and the global-model branch alike.
func TestEstimateConcurrentAllocationFree(t *testing.T) {
	g := stats.NewRNG(21)
	e := preparedEstimator(t, g)
	probes := []job.Features{synthFeatures(g, job.Class(0)), synthFeatures(g, job.Class(4))}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, f := range probes {
			_ = e.Estimate(f)
		}
	}); allocs != 0 {
		t.Fatalf("Estimate allocates %v times per call pair, want 0", allocs)
	}
}

// TestWindowedFitsMatchUnbounded feeds one stream of 3,000 observations,
// with an estimate after every one, to an unbounded estimator and to one
// whose models keep a 4,096-row window. The window never fills, so the
// windowed models must defer exactly like the unbounded ones: the same
// estimate bits and the same factorization count. A third estimator keeps
// a 1,000-row window, which the global model fills at observation 1,000
// (no class model fills). Until then it factors exactly like the unbounded
// one. From then on each Observe evicts a sample that the requested global
// fit covers, so every fit a refit requests of the global model runs at
// the next observation, although no estimate reads that model any more:
// the count records this, and a window that defers past its fill lowers
// it.
func TestWindowedFitsMatchUnbounded(t *testing.T) {
	const n, fill = 3000, 1000
	g := stats.NewRNG(3)
	unbounded, windowed := NewEstimator(), NewEstimator(WithModelWindow(4096))
	filled := NewEstimator(WithModelWindow(fill))
	for i := 0; i < n; i++ {
		f := synthFeatures(g, job.Class(g.Intn(job.NumClasses)))
		y := synthTruth(f) * g.LogNormalMeanCV(1, 0.1)
		unbounded.Observe(f, y)
		windowed.Observe(f, y)
		filled.Observe(f, y)
		probe := synthFeatures(g, job.Class(g.Intn(job.NumClasses)))
		if a, b := windowed.Estimate(probe), unbounded.Estimate(probe); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("obs %d: windowed estimate %v, unbounded %v", i, a, b)
		}
		filled.Estimate(probe)
		if a, b := filled.Factorizations(), unbounded.Factorizations(); i < fill && a != b {
			t.Fatalf("obs %d: before its window filled, the estimator ran %d factorizations, the unbounded one %d", i, a, b)
		}
	}
	if a, b := windowed.Factorizations(), unbounded.Factorizations(); a != b {
		t.Fatalf("windowed models ran %d factorizations, unbounded ones %d", a, b)
	}
	// Every class model is well determined long before the fill, so the
	// unbounded estimator runs none of the global fits requested after it;
	// the filled one runs all (n-fill)/refitEvery of them.
	if a, b := filled.Factorizations(), unbounded.Factorizations(); a != b+(n-fill)/filled.refitEvery {
		t.Fatalf("a %d-row window that fills ran %d factorizations, want the unbounded %d + %d",
			fill, a, b, (n-fill)/filled.refitEvery)
	}
}

// TestLazyRefitsMatchEager feeds one observation stream to two estimators.
// The eager one materializes every model after every Refit, under-determined
// class models included, and computes each fit's R² and RMSE at once; the
// lazy one only materializes what an estimate reads and computes
// diagnostics on first read. The class mix is skewed so some class models
// cross 2·BasisSize samples mid-stream and others never do. Every Estimate
// result, before and after Prepare of every class, must agree bit for bit,
// the lazy side must never factor a class model that is not well
// determined, and R2, RMSE and SettledR2 must agree bit for bit, on the
// models and on clones taken while their diagnostics are still owed. The
// stream runs unbounded and again with a 150-row window, which the global
// model and the busiest classes fill: there Observe settles requested fits
// and owed diagnostics before each eviction.
func TestLazyRefitsMatchEager(t *testing.T) {
	weights := []float64{0.40, 0.25, 0.15, 0.10, 0.06, 0.04}
	need := 2 * BasisSize(featureDim)
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, window := range []int{0, 150} {
		for seed := int64(1); seed <= seeds; seed++ {
			g := stats.NewRNG(seed)
			pick := func() job.Class {
				u := g.Float64()
				for c, w := range weights {
					if u < w {
						return job.Class(c)
					}
					u -= w
				}
				return job.Class(len(weights) - 1)
			}
			var opts []EstimatorOption
			if window > 0 {
				opts = append(opts, WithModelWindow(window))
			}
			lazy, eager := NewEstimator(opts...), NewEstimator(opts...)
			crossed, below, owed := 0, 0, 0
			for i := 0; i < 900; i++ {
				f := synthFeatures(g, pick())
				y := synthTruth(f) * g.LogNormalMeanCV(1, 0.1)
				v := eager.Version()
				lazy.Observe(f, y)
				eager.Observe(f, y)
				if eager.Version() != v {
					for _, m := range append([]*Model{eager.global}, eager.perClass...) {
						m.materialize()
						m.computeDiagnostics()
					}
				}
				if i%7 != 0 {
					continue
				}
				probe := synthFeatures(g, pick())
				if a, b := lazy.Estimate(probe), eager.Estimate(probe); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("window %d seed %d obs %d: lazy Estimate %v, eager %v", window, seed, i, a, b)
				}
				lazy.Prepare(AllClasses)
				eager.Prepare(AllClasses)
				if a, b := lazy.Estimate(probe), eager.Estimate(probe); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("window %d seed %d obs %d: prepared lazy Estimate %v, eager %v", window, seed, i, a, b)
				}
				for c, m := range lazy.perClass {
					if m.NumSamples() < need && m.fitDone {
						t.Fatalf("window %d seed %d obs %d: class %d materialized a fit with %d < %d samples", window, seed, i, c, m.NumSamples(), need)
					}
				}
				if i%21 != 0 {
					continue
				}
				// Every model Prepare covered: the global one and the well
				// sampled classes. Read a clone first, so the clone inherits
				// diagnostics the original still owes.
				clone := lazy.CloneInto(nil)
				lm := append([]*Model{lazy.global}, lazy.perClass...)
				cm := append([]*Model{clone.global}, clone.perClass...)
				em := append([]*Model{eager.global}, eager.perClass...)
				for k := range lm {
					if k > 0 && !lm[k].wellSampled() {
						continue
					}
					if lm[k].diagN > 0 {
						owed++
					}
					for _, m := range []*Model{cm[k], lm[k]} {
						sameDiagnostics(t, m, em[k])
					}
				}
			}
			for _, m := range lazy.perClass {
				if m.NumSamples() >= need {
					crossed++
				} else {
					below++
				}
			}
			if crossed == 0 || below == 0 {
				t.Fatalf("window %d seed %d: %d class models crossed %d samples and %d stayed below; the stream must do both", window, seed, crossed, need, below)
			}
			if owed == 0 {
				t.Fatalf("window %d seed %d: no read found diagnostics still owed; the lazy path went untested", window, seed)
			}
			if window > 0 && lazy.global.total <= window {
				t.Fatalf("seed %d: the global model never filled its %d-row window", seed, window)
			}
		}
	}
}

// sameDiagnostics fails unless got and want report bit-identical R2, RMSE
// and SettledR2. Reads materialize, so call it on models with no fit
// pending.
func sameDiagnostics(t *testing.T, got, want *Model) {
	t.Helper()
	pairs := [][2]float64{
		{got.SettledR2(), want.SettledR2()},
		{got.R2(), want.R2()},
		{got.RMSE(), want.RMSE()},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("diagnostic %d (SettledR2, R2, RMSE) = %v, want %v", i, p[0], p[1])
		}
	}
}

// TestFailedRefitKeepsActiveFit slides a windowed model onto samples with
// a constant feature, so the ridge-free refit is singular. The failed fit
// must leave the previous fit whole: the same prediction at a fixed point
// and the same diagnostics as a clone read before the slide. It used to
// standardize with the new window and predict with the old coefficients;
// and a windowed model must not defer its diagnostics past the slide.
func TestFailedRefitKeepsActiveFit(t *testing.T) {
	g := stats.NewRNG(5)
	m := New(2, WithRidge(0), WithWindow(8))
	truth := func(x []float64) float64 { return 3 + x[0] + 2*x[1] + 0.5*x[0]*x[1] + 0.1*x[0]*x[0] }
	for i := 0; i < 8; i++ {
		x := []float64{g.Uniform(0, 10), g.Uniform(0, 10)}
		m.Observe(x, truth(x)+g.Uniform(-1, 1))
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	probe := []float64{4, 5}
	before, err := m.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	fitted := m.CloneInto(nil)
	fitted.computeDiagnostics()
	for i := 0; i < 8; i++ {
		x := []float64{7, g.Uniform(0, 10)}
		m.Observe(x, truth(x))
	}
	if err := m.Fit(); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("refit over a constant feature returned %v, want ErrSingular", err)
	}
	after, err := m.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("failed refit moved Predict(%v) from %v to %v", probe, before, after)
	}
	sameDiagnostics(t, m, fitted)
}

// TestVersionCoversClassEligibility pins the Version contract across the
// one change to Estimate that no refit announces: a class model reaching
// the 2·BasisSize samples Estimate needs before consulting it. The version
// must advance with that observation, so a cache keyed on it re-estimates.
func TestVersionCoversClassEligibility(t *testing.T) {
	g := stats.NewRNG(9)
	e := NewEstimator(WithRefitEvery(1 << 30))
	need := 2 * BasisSize(featureDim)
	for i := 0; i < 200; i++ {
		f := synthFeatures(g, job.Statement)
		e.Observe(f, synthTruth(f))
	}
	for i := 0; i < need-1; i++ {
		f := synthFeatures(g, job.Book)
		e.Observe(f, 0.5*synthTruth(f))
	}
	e.Refit()
	probe := synthFeatures(g, job.Book)
	v, before := e.Version(), e.Estimate(probe)
	f := synthFeatures(g, job.Book)
	e.Observe(f, 0.5*synthTruth(f))
	after := e.Estimate(probe)
	if after == before {
		t.Fatalf("the class model's eligibility did not move the estimate (%v); the test needs it to", after)
	}
	if e.Version() == v {
		t.Fatalf("Estimate moved from %v to %v at the same Version %d", before, after, v)
	}
}
