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

// The paper's job shape (Sec. V): print-shop documents of 1–300 MB whose
// output is 30–80 % of their input. A biased bucket draws from its favoured
// third of the size range with probability biasFraction and from the full
// range otherwise, so its jobs still span 1–300 MB.
const (
	minMB, maxMB                 = 1, 300
	biasFraction                 = 0.6
	outputRatioLo, outputRatioHi = 0.3, 0.8
	defaultNoiseCV               = 0.12
)

// Config parameterizes a Generator. Zero fields take the paper defaults.
type Config struct {
	Bucket           Bucket
	Batches          int     // number of batches (default 6)
	BatchInterval    float64 // seconds between batches (default 180)
	MeanJobsPerBatch float64 // Poisson λ per batch (default 15)
	NoiseCV          float64 // processing-time noise CV (default 0.12)
	Seed             int64
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
	if c.NoiseCV == 0 {
		c.NoiseCV = defaultNoiseCV
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Batches < 0:
		return fmt.Errorf("workload: negative batch count %d", c.Batches)
	case c.BatchInterval < 0:
		return fmt.Errorf("workload: negative batch interval %v", c.BatchInterval)
	case c.NoiseCV < 0:
		return fmt.Errorf("workload: negative noise CV %v", c.NoiseCV)
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

// drawSizeMB samples a job input size according to the bucket: uniform
// over the full range, or — for the biased buckets — from the favoured
// third of the range with probability biasFraction and from the full range
// otherwise. The bounds are float64 variables, not constants: a constant
// expression such as maxMB-(maxMB-minMB)/3 would round once where the
// float64 arithmetic rounds twice.
func drawSizeMB(rng *stats.RNG, bucket Bucket) float64 {
	lo, hi := float64(minMB), float64(maxMB)
	third := (hi - lo) / 3
	switch bucket {
	case SmallBias:
		if rng.Float64() < biasFraction {
			return rng.Uniform(lo, lo+third)
		}
	case LargeBias:
		if rng.Float64() < biasFraction {
			return rng.Uniform(hi-third, hi)
		}
	}
	return rng.Uniform(lo, hi)
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

// synth is the one job synthesizer behind both arrival processes: a
// Generator's finite workload and a Stream's endless one draw every job
// through batch, over four streams forked from the seed in field order.
type synth struct {
	bucket                   Bucket
	truth                    *TruthModel
	size, feat, noise, count stats.RNG
}

// fork seeds the four streams from root, in field order.
func (s *synth) fork(root *stats.RNG) {
	root.ForkInto(&s.size)
	root.ForkInto(&s.feat)
	root.ForkInto(&s.noise)
	root.ForkInto(&s.count)
}

// batch synthesizes batch index arriving at: a Poisson(lambda) job count,
// raised to minJobs when the draw falls short, then each job's size,
// features, output ratio and processing time, with IDs from ids.
func (s *synth) batch(index int, at, lambda float64, minJobs int, ids job.IDAllocator) Batch {
	n := max(s.count.Poisson(lambda), minJobs)
	jobs := make([]*job.Job, 0, n)
	for k := 0; k < n; k++ {
		sizeMB := drawSizeMB(&s.size, s.bucket)
		f := SynthFeatures(&s.feat, sizeMB)
		outRatio := s.feat.Uniform(outputRatioLo, outputRatioHi)
		j := &job.Job{
			ID:           ids.NextID(),
			ParentID:     -1,
			BatchID:      index,
			ArrivalTime:  at,
			InputSize:    job.Bytes(sizeMB),
			OutputSize:   job.Bytes(sizeMB * outRatio),
			Features:     f,
			TrueProcTime: s.truth.Sample(&s.noise, f),
		}
		if err := j.Validate(); err != nil {
			panic(fmt.Sprintf("workload: generated invalid job: %v", err))
		}
		jobs = append(jobs, j)
	}
	return Batch{Index: index, At: at, Jobs: jobs}
}

// genState is one Generate call's working set: the root stream seeded from
// the config, the synthesizer whose streams fork from it, and the job-ID
// counter.
type genState struct {
	root stats.RNG
	synth
	ids job.Counter
}

// genStatePool recycles Generate's working sets. They never escape a call,
// and Reset and ForkInto overwrite a stream's whole state, so a recycled
// set draws exactly what a freshly allocated one would.
var genStatePool = sync.Pool{New: func() any { return new(genState) }}

// Generate produces the full batch sequence with globally increasing job
// IDs in arrival order, starting at 0. It is the steady case of a Stream:
// the same draws at the constant rate MeanJobsPerBatch, except that an
// empty batch carries no signal, so a draw of zero jobs yields one. Calling
// it twice yields the same workload. It is safe to call concurrently.
func (g *Generator) Generate() []Batch {
	st := genStatePool.Get().(*genState)
	defer genStatePool.Put(st)
	st.root.Reset(g.cfg.Seed)
	st.bucket, st.truth = g.cfg.Bucket, g.truth
	st.fork(&st.root)
	st.ids = job.Counter{}

	batches := make([]Batch, 0, g.cfg.Batches)
	for b := 0; b < g.cfg.Batches; b++ {
		at := float64(b) * g.cfg.BatchInterval
		batches = append(batches, st.batch(b, at, g.cfg.MeanJobsPerBatch, 1, &st.ids))
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
