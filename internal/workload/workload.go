// Package workload synthesizes the production document workload of the
// paper's evaluation: batches of jobs arriving every 3 minutes with
// Poisson-distributed batch sizes (λ=15), job sizes from 1 MB to 300 MB
// drawn from one of three buckets (biased small, uniform, biased large),
// correlated document features, and a hidden quadratic ground-truth
// processing-time law with multiplicative noise.
//
// The ground truth is what the QRSM has to learn; schedulers never see it.
package workload

import (
	"fmt"
	"sync"

	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

// Bucket selects the job-size distribution, mirroring the paper's three
// samplings of production workload.
type Bucket int

const (
	// SmallBias skews toward small jobs (bounded Pareto).
	SmallBias Bucket = iota
	// UniformMix draws sizes uniformly over the range.
	UniformMix
	// LargeBias mirrors SmallBias toward the top of the range.
	LargeBias
)

// String names the bucket.
func (b Bucket) String() string {
	switch b {
	case SmallBias:
		return "small"
	case UniformMix:
		return "uniform"
	case LargeBias:
		return "large"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// Buckets lists all three in paper order.
func Buckets() []Bucket { return []Bucket{SmallBias, UniformMix, LargeBias} }

// Config parameterizes a Generator. Zero fields take the paper defaults.
type Config struct {
	Bucket           Bucket
	Batches          int     // number of batches (default 6)
	BatchInterval    float64 // seconds between batches (default 180)
	MeanJobsPerBatch float64 // Poisson λ per batch (default 15)
	MinMB, MaxMB     float64 // job size range (default 1..300)
	// BiasFraction is the probability a biased bucket draws from its
	// favoured third of the size range instead of the full range
	// (default 0.6). The result is a bias, not a point mass: the paper's
	// buckets still span 1–300 MB.
	BiasFraction  float64
	OutputRatioLo float64 // output/input size ratio range (default 0.3..0.8)
	OutputRatioHi float64
	NoiseCV       float64 // processing-time noise CV (default 0.12)
	Seed          int64
	FirstBatchAt  float64 // arrival time of batch 0 (default 0)
}

func (c Config) withDefaults() Config {
	if c.Batches == 0 {
		c.Batches = 6
	}
	if c.BatchInterval == 0 {
		c.BatchInterval = 180
	}
	if c.MeanJobsPerBatch == 0 {
		c.MeanJobsPerBatch = 15
	}
	if c.MinMB == 0 {
		c.MinMB = 1
	}
	if c.MaxMB == 0 {
		c.MaxMB = 300
	}
	if c.BiasFraction == 0 {
		c.BiasFraction = 0.6
	}
	if c.OutputRatioLo == 0 {
		c.OutputRatioLo = 0.3
	}
	if c.OutputRatioHi == 0 {
		c.OutputRatioHi = 0.8
	}
	if c.NoiseCV == 0 {
		c.NoiseCV = 0.12
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Batches < 0:
		return fmt.Errorf("workload: negative batch count %d", c.Batches)
	case c.BatchInterval < 0:
		return fmt.Errorf("workload: negative batch interval %v", c.BatchInterval)
	case c.MinMB <= 0 || c.MaxMB < c.MinMB:
		return fmt.Errorf("workload: bad size range [%v,%v]", c.MinMB, c.MaxMB)
	case c.OutputRatioLo <= 0 || c.OutputRatioHi < c.OutputRatioLo:
		return fmt.Errorf("workload: bad output ratio range [%v,%v]", c.OutputRatioLo, c.OutputRatioHi)
	case c.NoiseCV < 0:
		return fmt.Errorf("workload: negative noise CV %v", c.NoiseCV)
	case c.BiasFraction < 0 || c.BiasFraction > 1:
		return fmt.Errorf("workload: bias fraction %v out of [0,1]", c.BiasFraction)
	}
	return nil
}

// Batch is one arrival: a set of jobs released together.
type Batch struct {
	Index int
	At    float64
	Jobs  []*job.Job
}

// Generator produces deterministic workloads from a seed.
type Generator struct {
	cfg   Config
	truth *TruthModel
}

// NewGenerator validates the config and returns a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, truth: NewTruthModel(cfg.NoiseCV)}, nil
}

// MustNewGenerator is NewGenerator panicking on error (for tests/examples).
func MustNewGenerator(cfg Config) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the effective (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// Truth exposes the ground-truth processing-time model (for experiment
// harnesses that need oracle comparisons; schedulers must not touch it).
func (g *Generator) Truth() *TruthModel { return g.truth }

// drawSizeMB samples a job input size according to the bucket: uniform
// over the full range, or — for the biased buckets — from the favoured
// third of the range with probability BiasFraction and from the full range
// otherwise.
func drawSizeMB(rng *stats.RNG, cfg Config) float64 {
	third := (cfg.MaxMB - cfg.MinMB) / 3
	switch cfg.Bucket {
	case SmallBias:
		if rng.Float64() < cfg.BiasFraction {
			return rng.Uniform(cfg.MinMB, cfg.MinMB+third)
		}
	case LargeBias:
		if rng.Float64() < cfg.BiasFraction {
			return rng.Uniform(cfg.MaxMB-third, cfg.MaxMB)
		}
	}
	return rng.Uniform(cfg.MinMB, cfg.MaxMB)
}

// SynthFeatures builds a correlated document feature vector for a job of
// the given input size.
func SynthFeatures(rng *stats.RNG, sizeMB float64) job.Features {
	class := job.Class(rng.Intn(job.NumClasses))
	pages := 1 + sizeMB*rng.Uniform(0.25, 0.6)
	imagesPerPage := rng.Uniform(0.5, 3)
	images := pages * imagesPerPage
	avgImageMB := 0.0
	if images > 0 {
		avgImageMB = sizeMB * rng.Uniform(0.4, 0.8) / images
	}
	return job.Features{
		SizeMB:        sizeMB,
		Pages:         pages,
		Images:        images,
		AvgImageMB:    avgImageMB,
		ImagesPerPage: imagesPerPage,
		ResolutionDPI: rng.TruncNormal(300, 150, 72, 1200),
		ColorFraction: rng.Float64(),
		TextRatio:     rng.Float64(),
		Coverage:      rng.Uniform(0.2, 1),
		Class:         class,
	}
}

// genStreams are Generate's random streams: a root seeded from the config
// and four children forked from it in field order.
type genStreams struct {
	root, size, feat, noise, count stats.RNG
}

// genStreamPool recycles Generate's streams. They never escape a call, and
// Reset and ForkInto overwrite a stream's whole state, so a recycled set
// draws exactly what a freshly allocated one would.
var genStreamPool = sync.Pool{New: func() any { return new(genStreams) }}

// Generate produces the full batch sequence with globally increasing job
// IDs in arrival order, starting at 0. Calling it twice yields the same
// workload. It is safe to call concurrently.
func (g *Generator) Generate() []Batch {
	st := genStreamPool.Get().(*genStreams)
	defer genStreamPool.Put(st)
	st.root.Reset(g.cfg.Seed)
	sizeRNG, featRNG, noiseRNG, countRNG := &st.size, &st.feat, &st.noise, &st.count
	st.root.ForkInto(sizeRNG)
	st.root.ForkInto(featRNG)
	st.root.ForkInto(noiseRNG)
	st.root.ForkInto(countRNG)

	ids := job.NewCounter(0)
	batches := make([]Batch, 0, g.cfg.Batches)
	for b := 0; b < g.cfg.Batches; b++ {
		at := g.cfg.FirstBatchAt + float64(b)*g.cfg.BatchInterval
		n := countRNG.Poisson(g.cfg.MeanJobsPerBatch)
		if n == 0 {
			n = 1 // an empty batch carries no signal; keep at least one job
		}
		jobs := make([]*job.Job, 0, n)
		for k := 0; k < n; k++ {
			sizeMB := drawSizeMB(sizeRNG, g.cfg)
			f := SynthFeatures(featRNG, sizeMB)
			outRatio := featRNG.Uniform(g.cfg.OutputRatioLo, g.cfg.OutputRatioHi)
			j := &job.Job{
				ID:           ids.NextID(),
				ParentID:     -1,
				BatchID:      b,
				ArrivalTime:  at,
				InputSize:    job.Bytes(sizeMB),
				OutputSize:   job.Bytes(sizeMB * outRatio),
				Features:     f,
				TrueProcTime: g.truth.Sample(noiseRNG, f),
			}
			if err := j.Validate(); err != nil {
				panic(fmt.Sprintf("workload: generated invalid job: %v", err))
			}
			jobs = append(jobs, j)
		}
		batches = append(batches, Batch{Index: b, At: at, Jobs: jobs})
	}
	return batches
}

// TotalJobs counts the jobs across batches.
func TotalJobs(batches []Batch) int {
	n := 0
	for _, b := range batches {
		n += len(b.Jobs)
	}
	return n
}

// TotalStdSeconds sums the ground-truth work across batches — the paper's
// t_seq(J), the sequential time on one standard machine used by the
// speedup metric.
func TotalStdSeconds(batches []Batch) float64 {
	var s float64
	for _, b := range batches {
		for _, j := range b.Jobs {
			s += j.TrueProcTime
		}
	}
	return s
}

// AllJobs flattens batches into one ID-ordered slice.
func AllJobs(batches []Batch) []*job.Job {
	out := make([]*job.Job, 0, TotalJobs(batches))
	for _, b := range batches {
		out = append(out, b.Jobs...)
	}
	return out
}
