package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

func TestGeneratorDefaults(t *testing.T) {
	batches := MustNewGenerator(Config{Seed: 1}).Generate()
	if len(batches) != 6 {
		t.Fatalf("batches = %d, want 6", len(batches))
	}
	for i, b := range batches {
		if b.At != float64(i)*180 {
			t.Fatalf("batch %d at %v, want %v", i, b.At, float64(i)*180)
		}
		for _, j := range b.Jobs {
			mb := j.Features.SizeMB
			if mb < 1 || mb > 300 {
				t.Fatalf("job %d size %v MB outside 1..300", j.ID, mb)
			}
			if r := float64(j.OutputSize) / float64(j.InputSize); r < 0.29 || r > 0.81 {
				t.Fatalf("job %d output ratio %v outside 0.3..0.8", j.ID, r)
			}
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []Config{
		{Batches: -1},
		{BatchInterval: -5},
		{NoiseCV: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Fatalf("config %d passed validation: %+v", i, cfg)
		}
	}
}

// TestGeneratorIsSteadyStream pins the finite workload as the steady case
// of the streaming one: a Stream at the constant rate λ draws the
// Generator's batches job for job until its first empty batch, where the
// Generator, which never yields an empty batch, draws exactly one job.
func TestGeneratorIsSteadyStream(t *testing.T) {
	const lambda = 6
	for seed := int64(1); seed <= 300; seed++ {
		for _, bucket := range Buckets() {
			gen := MustNewGenerator(Config{Bucket: bucket, Batches: 20, MeanJobsPerBatch: lambda, Seed: seed}).Generate()
			s := MustNewStream(StreamConfig{Bucket: bucket, Seed: seed, Rate: func(float64) float64 { return lambda }})
			ids := job.NewCounter(0)
			for i, want := range gen {
				got, _ := s.NextBatch(ids)
				if len(got.Jobs) == 0 {
					if len(want.Jobs) != 1 {
						t.Fatalf("seed %d %v: batch %d holds %d jobs where the stream's is empty, want 1", seed, bucket, i, len(want.Jobs))
					}
					break
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %v: batch %d differs:\nstream    %+v\ngenerator %+v", seed, bucket, i, got, want)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := MustNewGenerator(Config{Seed: 42})
	a := g.Generate()
	b := g.Generate()
	if TotalJobs(a) != TotalJobs(b) {
		t.Fatal("repeat generation changed job count")
	}
	ja, jb := AllJobs(a), AllJobs(b)
	for i := range ja {
		if ja[i].InputSize != jb[i].InputSize || ja[i].TrueProcTime != jb[i].TrueProcTime {
			t.Fatalf("job %d differs between generations", i)
		}
	}
	g2 := MustNewGenerator(Config{Seed: 43})
	c := g2.Generate()
	if TotalJobs(a) == TotalJobs(c) {
		same := true
		jc := AllJobs(c)
		for i := range ja {
			if ja[i].InputSize != jc[i].InputSize {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical workloads")
		}
	}
}

// TestGenerateConcurrent runs Generate from eight goroutines at once, each
// on its own seed, while they recycle one pool of streams: every result
// must equal the serial one.
func TestGenerateConcurrent(t *testing.T) {
	const workers = 8
	gens := make([]*Generator, workers)
	want := make([][]Batch, workers)
	for i := range gens {
		gens[i] = MustNewGenerator(Config{Seed: int64(100 + i), Bucket: Bucket(i % 3)})
		want[i] = gens[i].Generate()
	}
	got := make([][][]Batch, workers)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				got[i] = append(got[i], gens[i].Generate())
			}
		}(i)
	}
	wg.Wait()
	for i := range gens {
		for r, b := range got[i] {
			if !reflect.DeepEqual(b, want[i]) {
				t.Errorf("seed %d, concurrent call %d: workload differs from the serial call", 100+i, r)
			}
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	g := MustNewGenerator(Config{Seed: 7, Batches: 4})
	batches := g.Generate()
	if len(batches) != 4 {
		t.Fatalf("batches = %d", len(batches))
	}
	nextID := 0
	for bi, b := range batches {
		if b.Index != bi {
			t.Fatalf("batch index %d != %d", b.Index, bi)
		}
		if b.At != float64(bi)*180 {
			t.Fatalf("batch %d at %v", bi, b.At)
		}
		if len(b.Jobs) == 0 {
			t.Fatalf("batch %d empty", bi)
		}
		for _, j := range b.Jobs {
			if j.ID != nextID {
				t.Fatalf("job id %d, want %d (global arrival order)", j.ID, nextID)
			}
			nextID++
			if j.BatchID != bi || j.ArrivalTime != b.At {
				t.Fatalf("job %d batch metadata wrong", j.ID)
			}
			if err := j.Validate(); err != nil {
				t.Fatal(err)
			}
			if j.ParentID != -1 {
				t.Fatal("generated jobs must not be chunks")
			}
			mb := job.MB(j.InputSize)
			if mb < 1 || mb > 300 {
				t.Fatalf("job size %vMB out of range", mb)
			}
			if j.OutputSize >= j.InputSize || job.MB(j.OutputSize) < 0.2 {
				t.Fatalf("output size %vMB implausible for input %vMB",
					job.MB(j.OutputSize), mb)
			}
		}
	}
}

func TestBatchSizesVary(t *testing.T) {
	g := MustNewGenerator(Config{Seed: 11, Batches: 30})
	batches := g.Generate()
	var s stats.Summary
	for _, b := range batches {
		s.Add(float64(len(b.Jobs)))
	}
	if math.Abs(s.Mean()-15) > 3 {
		t.Fatalf("mean batch size = %v, want ≈15", s.Mean())
	}
	if s.Var() == 0 {
		t.Fatal("Poisson batch sizes should vary")
	}
}

func TestBucketBias(t *testing.T) {
	meanSize := func(b Bucket) float64 {
		g := MustNewGenerator(Config{Seed: 5, Bucket: b, Batches: 40})
		var s stats.Summary
		for _, j := range AllJobs(g.Generate()) {
			s.Add(job.MB(j.InputSize))
		}
		return s.Mean()
	}
	small, uniform, large := meanSize(SmallBias), meanSize(UniformMix), meanSize(LargeBias)
	if !(small < uniform && uniform < large) {
		t.Fatalf("bucket ordering broken: small=%v uniform=%v large=%v", small, uniform, large)
	}
	if small > 110 {
		t.Fatalf("small bucket mean %vMB not biased low", small)
	}
	if large < 190 {
		t.Fatalf("large bucket mean %vMB not biased high", large)
	}
	if math.Abs(uniform-150.5) > 15 {
		t.Fatalf("uniform bucket mean %vMB, want ≈150", uniform)
	}
}

func TestBucketStrings(t *testing.T) {
	if SmallBias.String() != "small" || UniformMix.String() != "uniform" || LargeBias.String() != "large" {
		t.Fatal("bucket names wrong")
	}
	if len(Buckets()) != 3 {
		t.Fatal("Buckets() wrong")
	}
	if Bucket(9).String() == "" {
		t.Fatal("unknown bucket should still print")
	}
}

func TestTruthModelScale(t *testing.T) {
	truth := NewTruthModel(0)
	f := SynthFeatures(stats.NewRNG(3), 150)
	f.Class = job.MailCampaign
	m := truth.Mean(f)
	// A 150MB document should take minutes, not seconds or hours.
	if m < 120 || m > 1800 {
		t.Fatalf("150MB mean proc time = %vs, want minutes-scale", m)
	}
	// Monotone in size, all else equal.
	f2 := f
	f2.SizeMB = 300
	if truth.Mean(f2) <= m {
		t.Fatal("processing time must grow with size")
	}
}

func TestTruthModelClassFactors(t *testing.T) {
	truth := NewTruthModel(0)
	f := SynthFeatures(stats.NewRNG(4), 100)
	f.Class = job.Statement
	cheap := truth.Mean(f)
	f.Class = job.Marketing
	rich := truth.Mean(f)
	if cheap >= rich {
		t.Fatalf("statement (%v) should be cheaper than marketing (%v)", cheap, rich)
	}
}

func TestTruthModelNoise(t *testing.T) {
	truth := NewTruthModel(0.2)
	rng := stats.NewRNG(5)
	f := SynthFeatures(stats.NewRNG(6), 100)
	var s stats.Summary
	for i := 0; i < 5000; i++ {
		s.Add(truth.Sample(rng, f))
	}
	if math.Abs(s.Mean()-truth.Mean(f))/truth.Mean(f) > 0.05 {
		t.Fatalf("noisy mean %v drifted from %v", s.Mean(), truth.Mean(f))
	}
	if s.CV() < 0.1 || s.CV() > 0.3 {
		t.Fatalf("noise CV = %v, want ≈0.2", s.CV())
	}
	// Zero noise is exact.
	tz := NewTruthModel(0)
	if tz.Sample(rng, f) != tz.Mean(f) {
		t.Fatal("zero-noise sample should equal mean")
	}
}

func TestTruthModelFloor(t *testing.T) {
	truth := NewTruthModel(0)
	f := job.Features{SizeMB: 0.001, Class: job.Statement}
	if truth.Mean(f) < truth.MinimumSecond {
		t.Fatal("mean below floor")
	}
}

func TestBootstrapSet(t *testing.T) {
	fs, ys := BootstrapSet(9, 250, 0.1)
	if len(fs) != 250 || len(ys) != 250 {
		t.Fatalf("sizes = %d/%d", len(fs), len(ys))
	}
	for i := range ys {
		if ys[i] <= 0 {
			t.Fatalf("bootstrap time %d not positive", i)
		}
		if fs[i].SizeMB < 1 || fs[i].SizeMB > 300 {
			t.Fatalf("bootstrap size %v out of range", fs[i].SizeMB)
		}
	}
	fs2, ys2 := BootstrapSet(9, 250, 0.1)
	for i := range ys {
		if ys[i] != ys2[i] || fs[i].SizeMB != fs2[i].SizeMB {
			t.Fatal("bootstrap set not deterministic")
		}
	}
}

func TestTotalHelpers(t *testing.T) {
	g := MustNewGenerator(Config{Seed: 13, Batches: 3})
	batches := g.Generate()
	all := AllJobs(batches)
	if len(all) != TotalJobs(batches) {
		t.Fatal("AllJobs/TotalJobs disagree")
	}
	var want float64
	for _, j := range all {
		want += j.TrueProcTime
	}
	if math.Abs(TotalStdSeconds(batches)-want) > 1e-9 {
		t.Fatal("TotalStdSeconds wrong")
	}
}

func TestSynthFeaturesConsistency(t *testing.T) {
	rng := stats.NewRNG(21)
	for i := 0; i < 200; i++ {
		size := rng.Uniform(1, 300)
		f := SynthFeatures(rng, size)
		if f.SizeMB != size {
			t.Fatal("SizeMB must equal input size")
		}
		if f.Pages < 1 {
			t.Fatalf("pages = %v", f.Pages)
		}
		if f.Images < 0 || f.ImagesPerPage < 0.5 || f.ImagesPerPage > 3 {
			t.Fatalf("images inconsistent: %+v", f)
		}
		if math.Abs(f.Images-f.Pages*f.ImagesPerPage) > 1e-9 {
			t.Fatal("images != pages*imagesPerPage")
		}
		if f.ResolutionDPI < 72 || f.ResolutionDPI > 1200 {
			t.Fatalf("resolution %v out of bounds", f.ResolutionDPI)
		}
		if int(f.Class) < 0 || int(f.Class) >= job.NumClasses {
			t.Fatalf("class %v invalid", f.Class)
		}
	}
}

func TestDiurnalDemand(t *testing.T) {
	if DiurnalDemand(10, 12*3600) != 15 { // noon: peak
		t.Fatalf("noon demand = %v", DiurnalDemand(10, 12*3600))
	}
	if DiurnalDemand(10, 3*3600) != 3 { // 3am: trough
		t.Fatalf("3am demand = %v", DiurnalDemand(10, 3*3600))
	}
	if DiurnalDemand(10, 7*3600) != 10 { // shoulder
		t.Fatalf("7am demand = %v", DiurnalDemand(10, 7*3600))
	}
}
