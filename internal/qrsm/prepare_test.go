package qrsm

import (
	"math"
	"runtime"
	"testing"
	"time"

	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

// failClass is the class whose model TestPrepareMatchesLazy makes fail:
// ridge-free, with a two-valued feature, its quadratic design is singular.
const failClass = 4

// prepTwin builds the estimator TestPrepareMatchesLazy drives: refits only
// when the test asks, and one class model that fails every fit.
func prepTwin() *Estimator {
	e := NewEstimator(WithRefitEvery(1 << 30))
	e.perClass[failClass] = New(featureDim, WithRidge(0))
	return e
}

// prepFeatures draws a job of class c. The failing class gets a two-valued
// ColorFraction, so its z, z² and intercept columns are collinear.
func prepFeatures(g *stats.RNG, c job.Class) job.Features {
	f := synthFeatures(g, c)
	if c == failClass {
		f.ColorFraction = float64(g.Intn(2))
	}
	return f
}

// sameModels fails unless the two estimators' models ran the same
// factorizations over the same windows, to the same coefficient and R²
// bits.
func sameModels(t *testing.T, step int, got, want *Estimator) {
	t.Helper()
	gm := append([]*Model{got.global}, got.perClass...)
	wm := append([]*Model{want.global}, want.perClass...)
	for k := range gm {
		a, b := gm[k], wm[k]
		if a.fits != b.fits || a.fitN != b.fitN || a.pending != b.pending {
			t.Fatalf("step %d model %d: fits/fitN/pending %d/%d/%v, lazy twin %d/%d/%v",
				step, k-1, a.fits, a.fitN, a.pending, b.fits, b.fitN, b.pending)
		}
		if len(a.coef) != len(b.coef) {
			t.Fatalf("step %d model %d: %d coefficients, lazy twin %d", step, k-1, len(a.coef), len(b.coef))
		}
		for i := range a.coef {
			if math.Float64bits(a.coef[i]) != math.Float64bits(b.coef[i]) {
				t.Fatalf("step %d model %d: coef[%d] %v, lazy twin %v", step, k-1, i, a.coef[i], b.coef[i])
			}
		}
		if x, y := a.SettledR2(), b.SettledR2(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d model %d: R² %v, lazy twin %v", step, k-1, x, y)
		}
	}
}

// TestPrepareMatchesLazy drives two estimators through one random sequence
// of Observe, Refit, Estimate and, on one side only, Prepare over a random
// class mask followed by an estimate of every class it named. Prepare must
// run exactly the fits the never-preparing twin runs lazily: after every
// step each model's factorization count, fit window, coefficients and R²
// agree bit for bit, and so do the estimates. The sequence covers masks
// naming a class too thin to estimate (the global model answers), the
// failing class (the global model is its fallback), empty masks and bits
// past the last class. GOMAXPROCS 4 makes the fits run side by side.
func TestPrepareMatchesLazy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	weights := []float64{0.20, 0.20, 0.20, 0.03, 0.30, 0.07}
	steps := 600
	if testing.Short() {
		steps = 300
	}
	for seed := int64(1); seed <= 2; seed++ {
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
		prep, lazy := prepTwin(), prepTwin()
		var thin, failed, empty, outside, side int
		for step := 0; step < steps; step++ {
			switch op := g.Intn(10); {
			case op < 5:
				for n := 1 + g.Intn(12); n > 0; n-- {
					c := pick()
					f := prepFeatures(g, c)
					y := synthTruth(f) * g.LogNormalMeanCV(1, 0.1)
					prep.Observe(f, y)
					lazy.Observe(f, y)
				}
			case op < 7:
				prep.Refit()
				lazy.Refit()
			case op < 9:
				var mask uint64
				var probes []job.Features
				share := 0.5
				if g.Float64() < 0.1 {
					share = 0 // an empty mask
				}
				for c := range job.NumClasses {
					if g.Float64() < share {
						mask |= ClassBit(job.Class(c))
						probes = append(probes, prepFeatures(g, job.Class(c)))
					}
				}
				if share > 0 && g.Float64() < 0.15 {
					c := job.Class(job.NumClasses + g.Intn(70))
					if g.Float64() < 0.3 {
						c = -1
					}
					mask |= ClassBit(c)
					probes = append(probes, prepFeatures(g, c))
					outside++
				}
				if mask == 0 {
					empty++
				}
				pending := 0
				for c, m := range prep.perClass {
					if mask&(1<<c) == 0 {
						continue
					}
					switch {
					case !m.wellSampled():
						thin++
					case c == failClass:
						failed++
					}
					if m.fitPending() {
						pending++
					}
				}
				if pending >= 2 {
					side++
				}
				prep.Prepare(mask)
				for _, f := range probes {
					a, b := prep.Estimate(f), lazy.Estimate(f)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("seed %d step %d: prepared Estimate %v, lazy %v", seed, step, a, b)
					}
				}
			default:
				f := prepFeatures(g, pick())
				a, b := prep.Estimate(f), lazy.Estimate(f)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d step %d: Estimate %v, lazy %v", seed, step, a, b)
				}
			}
			sameModels(t, step, prep, lazy)
		}
		if thin == 0 || failed == 0 || empty == 0 || outside == 0 || side == 0 {
			t.Fatalf("seed %d: masks covered %d thin classes, %d failing, %d empty, %d outside, %d side-by-side passes; want all",
				seed, thin, failed, empty, outside, side)
		}
		if prep.perClass[failClass].fits == 0 || prep.perClass[failClass].fitted {
			t.Fatalf("seed %d: the failing class ran %d fits, fitted=%v; want failed fits",
				seed, prep.perClass[failClass].fits, prep.perClass[failClass].fitted)
		}
	}
}

// TestPreparePanicReRaised corrupts every pending class fit so each one
// panics, then prepares them side by side. The first panic in pull order
// must reach the caller, who can recover it, and no helper goroutine may
// outlive the call.
func TestPreparePanicReRaised(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := stats.NewRNG(8)
	e := NewEstimator(WithRefitEvery(1 << 30))
	var mask uint64
	for c := range job.NumClasses {
		for i := 0; i < 2*BasisSize(featureDim); i++ {
			f := synthFeatures(g, job.Class(c))
			e.Observe(f, synthTruth(f))
		}
		mask |= ClassBit(job.Class(c))
	}
	e.Refit()
	for _, m := range e.perClass {
		m.xd = nil // the fit slices past an empty feature slab
	}
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		e.Prepare(mask)
	}()
	if got == nil {
		t.Fatal("Prepare swallowed the panicking fits")
	}
	if _, ok := got.(runtime.Error); !ok {
		t.Fatalf("recovered %T %v, want the fit's runtime.Error", got, got)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Prepare, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
