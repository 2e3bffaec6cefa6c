// Package job models the unit of work in the production-printing domain:
// a document-processing job with content features, an input payload that
// must be uploaded if the job is bursted, an output payload that must come
// back, and a hidden ground-truth processing time that the schedulers can
// only estimate through the QRSM.
package job

import (
	"fmt"
	"math"
)

// Class enumerates the document job types named in the paper's domain
// description (newspapers, books, marketing material, mail campaigns,
// credit-card statements, variable-data promotions).
type Class int

const (
	Newspaper Class = iota
	Book
	Marketing
	MailCampaign
	Statement
	Promotional
	numClasses
)

// NumClasses is the number of document classes.
const NumClasses = int(numClasses)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Newspaper:
		return "newspaper"
	case Book:
		return "book"
	case Marketing:
		return "marketing"
	case MailCampaign:
		return "mail-campaign"
	case Statement:
		return "statement"
	case Promotional:
		return "promotional"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Features are the document attributes the paper lists as QRSM dimensions:
// size, pages, images, image size, images per page, resolution, color
// content, text ratio, and coverage.
type Features struct {
	SizeMB        float64 // total input size in megabytes
	Pages         float64
	Images        float64 // number of raster images
	AvgImageMB    float64 // mean image payload size
	ImagesPerPage float64
	ResolutionDPI float64
	ColorFraction float64 // 0 = monochrome, 1 = full color
	TextRatio     float64 // text area : page area
	Coverage      float64 // ink coverage 0..1
	Class         Class
}

// Vector returns the numeric feature vector used by the QRSM, in a fixed
// order. The class is not included; per the paper, a model is learned per
// job class.
func (f Features) Vector() []float64 {
	return []float64{
		f.SizeMB,
		f.Pages,
		f.Images,
		f.AvgImageMB,
		f.ImagesPerPage,
		f.ResolutionDPI,
		f.ColorFraction,
		f.TextRatio,
		f.Coverage,
	}
}

// Job is one document-processing job. IDs are assigned in arrival order and
// define the FCFS/result-queue ordering that the OO metric scores against.
type Job struct {
	ID       int
	ParentID int // ID of the job this was chunked from; -1 for originals
	BatchID  int

	ArrivalTime float64 // virtual seconds
	InputSize   int64   // bytes to upload when bursting
	OutputSize  int64   // bytes to download after remote processing
	Features    Features

	// TrueProcTime is the ground-truth processing time in seconds on a
	// standard (speed factor 1.0) machine. The engine uses it to advance
	// the simulation; schedulers must never read it directly — they see
	// only QRSM estimates.
	TrueProcTime float64
}

// Megabyte is the byte count used for MB conversions throughout the repo.
const Megabyte = 1 << 20

// MB converts a byte count to megabytes.
func MB(bytes int64) float64 { return float64(bytes) / Megabyte }

// Bytes converts megabytes to a byte count.
func Bytes(mb float64) int64 { return int64(math.Round(mb * Megabyte)) }

// IsChunk reports whether the job was produced by chunking a larger job.
func (j *Job) IsChunk() bool { return j.ParentID >= 0 }

// Validate returns an error when the job violates basic domain invariants.
// The engine validates every job at submission so that malformed synthetic
// workloads fail fast rather than corrupting metrics.
func (j *Job) Validate() error {
	switch {
	case j.ID < 0:
		return fmt.Errorf("job %d: negative id", j.ID)
	case j.InputSize <= 0:
		return fmt.Errorf("job %d: input size %d not positive", j.ID, j.InputSize)
	case j.OutputSize <= 0:
		return fmt.Errorf("job %d: output size %d not positive", j.ID, j.OutputSize)
	case j.TrueProcTime <= 0:
		return fmt.Errorf("job %d: processing time %v not positive", j.ID, j.TrueProcTime)
	case math.IsNaN(j.TrueProcTime) || math.IsInf(j.TrueProcTime, 0):
		return fmt.Errorf("job %d: processing time %v not finite", j.ID, j.TrueProcTime)
	case j.ArrivalTime < 0:
		return fmt.Errorf("job %d: negative arrival time %v", j.ID, j.ArrivalTime)
	}
	return nil
}

// String renders a compact description.
func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s, %.1fMB in / %.1fMB out, %.0fs proc)",
		j.ID, j.Features.Class, MB(j.InputSize), MB(j.OutputSize), j.TrueProcTime)
}
