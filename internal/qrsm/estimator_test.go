package qrsm

import (
	"math"
	"sync"
	"testing"

	"cloudburst/internal/job"
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
	e := NewEstimator(WithFallbackRate(2), WithFloor(1))
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

// TestEstimateConcurrentMatchesEstimate pins the sharded fan-out's
// prediction path: for every model-selection branch (well-determined class
// model, global model, size fallback) the buffer-local concurrent variant
// must agree with Estimate bit for bit, including under parallel readers.
func TestEstimateConcurrentMatchesEstimate(t *testing.T) {
	g := stats.NewRNG(11)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 300; i++ {
		f := synthFeatures(g, job.Class(i%job.NumClasses))
		fs = append(fs, f)
		ys = append(ys, synthTruth(f)*g.LogNormalMeanCV(1, 0.05))
	}
	e.Bootstrap(fs, ys)
	e.Materialize()

	probes := make([]job.Features, 64)
	for i := range probes {
		probes[i] = synthFeatures(g, job.Class(i%job.NumClasses))
	}
	for _, f := range probes {
		if a, b := e.Estimate(f), e.EstimateConcurrent(f); a != b {
			t.Fatalf("EstimateConcurrent diverged: %v vs %v for %+v", b, a, f)
		}
	}
	// Cold estimator: both sides take the size-fallback branch.
	cold := NewEstimator(WithFallbackRate(2), WithFloor(1))
	cold.Materialize()
	f := job.Features{SizeMB: 50}
	if a, b := cold.Estimate(f), cold.EstimateConcurrent(f); a != b {
		t.Fatalf("fallback branch diverged: %v vs %v", b, a)
	}

	// Parallel readers over the materialized estimator (the -race leg
	// makes this a real concurrency check).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range probes {
				_ = e.EstimateConcurrent(f)
			}
		}()
	}
	wg.Wait()
}

// TestLazyRefitsMatchEager feeds one observation stream to two estimators.
// The eager one materializes every model after every Refit, under-determined
// class models included; the lazy one only materializes what an estimate
// reads. The class mix is skewed so some class models cross 2·BasisSize
// samples mid-stream and others never do. Every Estimate and
// EstimateConcurrent result must agree bit for bit, and the lazy side must
// never factor a class model that is not well determined.
func TestLazyRefitsMatchEager(t *testing.T) {
	weights := []float64{0.40, 0.25, 0.15, 0.10, 0.06, 0.04}
	need := 2 * BasisSize(featureDim)
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
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
		lazy, eager := NewEstimator(), NewEstimator()
		crossed, below := 0, 0
		for i := 0; i < 900; i++ {
			f := synthFeatures(g, pick())
			y := synthTruth(f) * g.LogNormalMeanCV(1, 0.1)
			v := eager.Version()
			lazy.Observe(f, y)
			eager.Observe(f, y)
			if eager.Version() != v {
				eager.global.materialize()
				for _, m := range eager.perClass {
					m.materialize()
				}
			}
			if i%7 != 0 {
				continue
			}
			probe := synthFeatures(g, pick())
			if a, b := lazy.Estimate(probe), eager.Estimate(probe); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d obs %d: lazy Estimate %v, eager %v", seed, i, a, b)
			}
			lazy.Materialize()
			eager.Materialize()
			if a, b := lazy.EstimateConcurrent(probe), eager.EstimateConcurrent(probe); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d obs %d: lazy EstimateConcurrent %v, eager %v", seed, i, a, b)
			}
			for c, m := range lazy.perClass {
				if m.NumSamples() < need && m.fitDone {
					t.Fatalf("seed %d obs %d: class %d materialized a fit with %d < %d samples", seed, i, c, m.NumSamples(), need)
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
			t.Fatalf("seed %d: %d class models crossed %d samples and %d stayed below; the stream must do both", seed, crossed, need, below)
		}
	}
}

// TestEstimateConcurrentAllocationFree pins the sharded fan-out's per-job
// estimate: its scratch lives on the caller's stack.
func TestEstimateConcurrentAllocationFree(t *testing.T) {
	g := stats.NewRNG(21)
	e := NewEstimator()
	var fs []job.Features
	var ys []float64
	for i := 0; i < 400; i++ {
		f := synthFeatures(g, job.Class(i%2))
		fs = append(fs, f)
		ys = append(ys, synthTruth(f))
	}
	e.Bootstrap(fs, ys)
	e.Materialize()
	probes := []job.Features{synthFeatures(g, job.Class(0)), synthFeatures(g, job.Class(4))}
	if !e.perClass[0].wellDeterminedRead() || e.perClass[4].wellDeterminedRead() {
		t.Fatal("probes must cover a class model and the global model")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range probes {
			_ = e.EstimateConcurrent(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("EstimateConcurrent allocates %v times per call pair, want 0", allocs)
	}
}
