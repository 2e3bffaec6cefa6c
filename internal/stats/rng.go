// Package stats provides the statistical substrate used across the
// reproduction: seeded random variate generation, streaming summaries,
// exponentially weighted moving averages, histograms, and time-series
// sampling.
//
// All randomness flows through RNG so that every experiment is reproducible
// from an explicit seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions needed by the workload and
// network models. It is not safe for concurrent use; give each replication
// its own RNG.
//
// An RNG keeps its generator state inline, and its rand.Rand points into
// that state, so an RNG must not be copied after first use: pass *RNG.
// Its draws equal those of rand.New(rand.NewSource(seed)) for every seed.
type RNG struct {
	r   rand.Rand
	src source
}

// NewRNG returns a generator seeded deterministically.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.Reset(seed)
	return g
}

// Reset reseeds g in place: afterwards it draws exactly what NewRNG(seed)
// would. It overwrites the whole state and allocates nothing, so a
// generator can be reused across runs. Reset works on a zero RNG.
func (g *RNG) Reset(seed int64) {
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform variate in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponential variate with the given mean (not rate).
// A non-positive mean returns 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth's product method; for large lambda it uses the PTRS
// transformed-rejection method of Hörmann (1993), which stays O(1). A NaN
// or infinite lambda panics: the sampler would never return or return
// garbage, and validated inputs cannot produce one.
func (g *RNG) Poisson(lambda float64) int {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		panic(fmt.Sprintf("stats: Poisson mean %v is not finite", lambda))
	}
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		// Knuth: multiply uniforms until the product drops below e^-lambda.
		limit := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= g.r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	return g.poissonPTRS(lambda)
}

// poissonPTRS implements Hörmann's PTRS rejection sampler (valid for
// lambda >= 10).
func (g *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := g.r.Float64() - 0.5
		v := g.r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lg {
			return int(k)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// TruncNormal returns a normal variate clamped to [lo,hi] by resampling
// (up to 64 attempts, then clamping). It is used for feature synthesis
// where hard physical bounds exist (e.g. resolution).
func (g *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		v := g.Normal(mean, std)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a lognormal variate where mu and sigma are the mean and
// standard deviation of the underlying normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LogNormalMeanCV returns a lognormal variate parameterized by its own mean
// and coefficient of variation — the natural way to express "bandwidth
// jitters around 250 kB/s with CV 0.3".
func (g *RNG) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return g.LogNormal(mu, math.Sqrt(sigma2))
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork derives an independent child generator from this one. Forking lets a
// run hand distinct deterministic streams to its components (workload,
// network, processing noise) so that changing one component's draw count
// does not perturb the others.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// ForkInto is Fork into an existing generator: it reseeds dst in place
// with the seed Fork would have drawn, and allocates nothing.
func (g *RNG) ForkInto(dst *RNG) {
	dst.Reset(g.r.Int63())
}
