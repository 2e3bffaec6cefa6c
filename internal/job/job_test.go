package job

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleJob() *Job {
	return &Job{
		ID:          3,
		ParentID:    -1,
		BatchID:     0,
		ArrivalTime: 10,
		InputSize:   Bytes(100),
		OutputSize:  Bytes(60),
		Features: Features{
			SizeMB: 100, Pages: 40, Images: 80, AvgImageMB: 1.0,
			ImagesPerPage: 2, ResolutionDPI: 300, ColorFraction: 0.6,
			TextRatio: 0.5, Coverage: 0.7, Class: Marketing,
		},
		TrueProcTime: 240,
	}
}

func TestMBRoundTrip(t *testing.T) {
	if MB(Bytes(37.5)) != 37.5 {
		t.Fatalf("MB/Bytes roundtrip = %v", MB(Bytes(37.5)))
	}
	if Bytes(1) != 1<<20 {
		t.Fatalf("Bytes(1) = %d", Bytes(1))
	}
}

func TestVectorMatchesNames(t *testing.T) {
	f := sampleJob().Features
	v := f.Vector()
	if len(v) != 9 {
		t.Fatalf("vector len %d, want the 9 features", len(v))
	}
	if v[0] != f.SizeMB || v[1] != f.Pages || v[5] != f.ResolutionDPI {
		t.Fatalf("vector order unexpected: %v", v)
	}
}

func TestClassString(t *testing.T) {
	if Newspaper.String() != "newspaper" || Promotional.String() != "promotional" {
		t.Fatal("class names wrong")
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Fatal("unknown class should include number")
	}
	if NumClasses != 6 {
		t.Fatalf("NumClasses = %d, want 6", NumClasses)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleJob().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []func(*Job){
		func(j *Job) { j.ID = -1 },
		func(j *Job) { j.InputSize = 0 },
		func(j *Job) { j.OutputSize = -5 },
		func(j *Job) { j.TrueProcTime = 0 },
		func(j *Job) { j.TrueProcTime = math.NaN() },
		func(j *Job) { j.TrueProcTime = math.Inf(1) },
		func(j *Job) { j.ArrivalTime = -1 },
	}
	for i, mut := range bad {
		j := sampleJob()
		mut(j)
		if err := j.Validate(); err == nil {
			t.Fatalf("mutation %d passed validation", i)
		}
	}
}

func TestIsChunkAndString(t *testing.T) {
	j := sampleJob()
	if j.IsChunk() {
		t.Fatal("original job should not be a chunk")
	}
	j.ParentID = 1
	if !j.IsChunk() {
		t.Fatal("job with parent should be a chunk")
	}
	if !strings.Contains(sampleJob().String(), "marketing") {
		t.Fatalf("String() = %q", sampleJob().String())
	}
}

func TestChunkPreservesTotals(t *testing.T) {
	j := sampleJob()
	alloc := NewCounter(100)
	chunks := Chunk(j, 4, alloc)
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	var in, out int64
	var proc, pages, images float64
	for i, c := range chunks {
		if c.ID != 100+i {
			t.Fatalf("chunk %d id = %d, want %d", i, c.ID, 100+i)
		}
		if c.ParentID != j.ID {
			t.Fatalf("chunk parent = %d, want %d", c.ParentID, j.ID)
		}
		if c.BatchID != j.BatchID || c.ArrivalTime != j.ArrivalTime {
			t.Fatal("chunk must inherit batch and arrival")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("chunk %d invalid: %v", i, err)
		}
		in += c.InputSize
		out += c.OutputSize
		proc += c.TrueProcTime
		pages += c.Features.Pages
		images += c.Features.Images
	}
	if in != j.InputSize || out != j.OutputSize {
		t.Fatalf("sizes not preserved: %d/%d vs %d/%d", in, out, j.InputSize, j.OutputSize)
	}
	if math.Abs(proc-j.TrueProcTime) > 1e-9 {
		t.Fatalf("proc time not preserved: %v vs %v", proc, j.TrueProcTime)
	}
	if math.Abs(pages-j.Features.Pages) > 1e-9 || math.Abs(images-j.Features.Images) > 1e-9 {
		t.Fatal("pages/images not preserved")
	}
}

func TestChunkInheritsPerPageFeatures(t *testing.T) {
	j := sampleJob()
	chunks := Chunk(j, 2, NewCounter(10))
	for _, c := range chunks {
		if c.Features.ResolutionDPI != j.Features.ResolutionDPI ||
			c.Features.ColorFraction != j.Features.ColorFraction ||
			c.Features.Class != j.Features.Class {
			t.Fatal("per-page features must be inherited")
		}
		if c.Features.SizeMB != MB(c.InputSize) {
			t.Fatalf("chunk SizeMB %v inconsistent with InputSize %v", c.Features.SizeMB, MB(c.InputSize))
		}
	}
}

func TestChunkSingleAndClamp(t *testing.T) {
	j := sampleJob()
	if got := Chunk(j, 1, NewCounter(0)); len(got) != 1 || got[0] != j {
		t.Fatal("n=1 should return the original job")
	}
	if got := Chunk(j, 0, NewCounter(0)); len(got) != 1 || got[0] != j {
		t.Fatal("n=0 should return the original job")
	}
	// A 3-page job cannot split into more than 3 chunks.
	j.Features.Pages = 3
	got := Chunk(j, 10, NewCounter(0))
	if len(got) != 3 {
		t.Fatalf("clamp to pages failed: %d chunks", len(got))
	}
	// One page -> no split.
	j2 := sampleJob()
	j2.Features.Pages = 1
	if got := Chunk(j2, 5, NewCounter(0)); len(got) != 1 || got[0] != j2 {
		t.Fatal("one-page job must not split")
	}
}

func TestChunkToSize(t *testing.T) {
	j := sampleJob() // 100 MB
	chunks := ChunkToSize(j, Bytes(30), NewCounter(50))
	if len(chunks) != 4 { // ceil(100/30)
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	for _, c := range chunks {
		if c.InputSize > Bytes(30)+1 {
			t.Fatalf("chunk too large: %d bytes", c.InputSize)
		}
	}
}

func TestChunkToSizeBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive target did not panic")
		}
	}()
	ChunkToSize(sampleJob(), 0, NewCounter(0))
}

func TestCounter(t *testing.T) {
	c := NewCounter(5)
	if c.Peek() != 5 {
		t.Fatal("Peek before NextID wrong")
	}
	if c.NextID() != 5 || c.NextID() != 6 {
		t.Fatal("counter sequence wrong")
	}
	if c.Peek() != 7 {
		t.Fatal("Peek after NextID wrong")
	}
}

// Property: chunking preserves totals for arbitrary sizes and chunk counts.
func TestChunkConservationProperty(t *testing.T) {
	f := func(sizeMB uint16, pages uint8, n uint8) bool {
		if sizeMB == 0 || pages == 0 {
			return true
		}
		j := sampleJob()
		j.InputSize = Bytes(float64(sizeMB))
		j.OutputSize = Bytes(float64(sizeMB) * 0.5)
		j.Features.Pages = float64(pages)
		j.TrueProcTime = float64(sizeMB) * 2
		chunks := Chunk(j, int(n), NewCounter(1000))
		var in, out int64
		var proc float64
		for _, c := range chunks {
			if c.InputSize <= 0 || c.TrueProcTime <= 0 {
				return false
			}
			in += c.InputSize
			out += c.OutputSize
			proc += c.TrueProcTime
		}
		return in == j.InputSize && out == j.OutputSize &&
			math.Abs(proc-j.TrueProcTime) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
