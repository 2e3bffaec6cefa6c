package cloudburst

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cloudburst/internal/sweep"
)

// acceptanceSpec is the grid from the acceptance criteria: three schedulers
// × three buckets × four replication seeds, on a small workload.
func acceptanceSpec() SweepSpec {
	return SweepSpec{
		Schedulers:       []string{"Greedy", "Op", "SIBS"},
		Buckets:          []string{"small", "uniform", "large"},
		SeedCount:        4,
		Batches:          2,
		MeanJobsPerBatch: 5,
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	spec := acceptanceSpec()
	results, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3*3*4 {
		t.Fatalf("sweep produced %d cells, want 36", len(results))
	}
	for _, r := range results {
		o, err := CellOptions(spec, r.Cell)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identical: the concurrent sweep and a serial Run of the cell's
		// replayed Options must agree on every metric exactly.
		if got, want := r.Metrics, sweepMetrics(rep); got != want {
			t.Fatalf("cell %d (%s/%s seed %d): sweep metrics diverge from serial Run\nsweep:  %+v\nserial: %+v",
				r.Cell.Index, r.Cell.Scheduler, r.Cell.Bucket, r.Cell.Seed, got, want)
		}
		if r.Origin != sweep.Ran {
			t.Fatalf("cell %d origin %v on a fresh sweep", r.Cell.Index, r.Origin)
		}
	}
}

func TestSweepResumeReexecutesOnlyIncompleteCells(t *testing.T) {
	spec := acceptanceSpec()
	manifest := filepath.Join(t.TempDir(), "sweep.manifest")

	// First attempt: cancel as soon as the first cell completes. In-flight
	// cells may still finish (or stop at their next poll); untouched cells
	// must not start.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := SweepContext(ctx, spec, SweepConfig{
		ManifestPath: manifest,
		Progress:     func(done, total int) { once.Do(cancel) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	// Every cell the first attempt completed is journaled.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line != "" {
			journaled++
		}
	}
	if journaled == 0 {
		t.Fatal("cancelled sweep journaled nothing; the completed cell must be on record")
	}

	// Second attempt resumes: exactly the journaled cells come back as
	// Resumed, only the remainder executes.
	results, err := SweepContext(context.Background(), spec, SweepConfig{ManifestPath: manifest})
	if err != nil {
		t.Fatal(err)
	}
	resumed, ran := 0, 0
	for _, r := range results {
		switch r.Origin {
		case sweep.Resumed:
			resumed++
		case sweep.Ran:
			ran++
		default:
			t.Fatalf("cell %d has origin %v; grid has no duplicate cells", r.Cell.Index, r.Origin)
		}
	}
	if resumed != journaled {
		t.Fatalf("resumed %d cells, want every journaled cell (%d)", resumed, journaled)
	}
	if ran != len(results)-journaled {
		t.Fatalf("re-executed %d cells, want only the %d incomplete ones", ran, len(results)-journaled)
	}

	// The resumed sweep's metrics still match serial replay.
	for _, r := range results[:4] {
		o, _ := CellOptions(spec, r.Cell)
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics != sweepMetrics(rep) {
			t.Fatalf("cell %d (%v): resumed metrics diverge from serial Run", r.Cell.Index, r.Origin)
		}
	}
}

func TestSweepDedupsIdenticalCells(t *testing.T) {
	spec := SweepSpec{
		Schedulers:       []string{"Op"},
		Seeds:            []int64{7, 7}, // identical replications
		Batches:          2,
		MeanJobsPerBatch: 5,
	}
	results, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Origin != sweep.Ran || results[1].Origin != sweep.Deduped {
		t.Fatalf("origins = %v, %v; want ran, dedup", results[0].Origin, results[1].Origin)
	}
	if results[0].Metrics != results[1].Metrics {
		t.Fatal("deduped cell's metrics differ from its representative")
	}
	if results[0].Cell.Fingerprint != results[1].Cell.Fingerprint {
		t.Fatal("identical cells got different fingerprints")
	}
}

// TestSweepWorkerInvarianceWithPooledArenas pins the arena-reuse
// concurrency contract: sweep workers draw their allocation backbone from
// a shared arena pool, and neither the worker count nor the order arenas
// get recycled in may leak state between cells — a serial sweep and a
// maximally parallel one must agree on every metric to the last bit. The
// grid carries a duplicate seed so the fingerprint-dedup path (one
// representative execution, result copied to its twin) runs alongside the
// pooled full executions. The CI race leg runs this test under -race,
// where a scrub racing a reacquire would be reported even if the metrics
// happened to survive.
func TestSweepWorkerInvarianceWithPooledArenas(t *testing.T) {
	spec := SweepSpec{
		Schedulers:       []string{"Greedy", "Op", "SIBS"},
		Buckets:          []string{"small", "large"},
		Seeds:            []int64{1, 2, 1}, // 1 repeats: dedup in play
		Batches:          2,
		MeanJobsPerBatch: 5,
	}
	serial, err := SweepContext(context.Background(), spec, SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SweepContext(context.Background(), spec, SweepConfig{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) || len(serial) != 3*2*3 {
		t.Fatalf("cell counts: serial %d, wide %d, want 18", len(serial), len(wide))
	}
	deduped := 0
	for i := range serial {
		if serial[i].Metrics != wide[i].Metrics {
			t.Errorf("cell %d (%s/%s seed %d): worker count changed the result\n  1 worker:  %+v\n  %d workers: %+v",
				i, serial[i].Cell.Scheduler, serial[i].Cell.Bucket, serial[i].Cell.Seed,
				serial[i].Metrics, runtime.GOMAXPROCS(0), wide[i].Metrics)
		}
		if serial[i].Cell.Fingerprint != wide[i].Cell.Fingerprint {
			t.Errorf("cell %d: fingerprint differs across worker counts", i)
		}
		if wide[i].Origin == sweep.Deduped {
			deduped++
		}
	}
	if deduped != 6 {
		t.Errorf("deduped %d cells, want 6 (the repeated seed across 3 schedulers x 2 buckets)", deduped)
	}
}

func TestSweepStreamsJSONLInCellOrder(t *testing.T) {
	var buf bytes.Buffer
	spec := SweepSpec{
		Schedulers:       []string{"Greedy", "Op"},
		Buckets:          []string{"small", "uniform"},
		SeedCount:        2,
		Batches:          2,
		MeanJobsPerBatch: 5,
	}
	if _, err := SweepContext(context.Background(), spec, SweepConfig{JSONL: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("JSONL has %d lines, want 8", len(lines))
	}
	for i, line := range lines {
		var row struct {
			Index     int     `json:"index"`
			Scheduler string  `json:"scheduler"`
			Metrics   Metrics `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		if row.Index != i {
			t.Fatalf("line %d has index %d; rows must stream in cell order", i, row.Index)
		}
		if row.Metrics.Makespan <= 0 {
			t.Fatalf("line %d has no metrics: %s", i, line)
		}
	}
}

// Metrics mirrors the sweep metric vector for JSONL decoding in tests.
type Metrics struct {
	Makespan float64 `json:"makespan"`
}

func TestSweepRejectsInvalidSpecTyped(t *testing.T) {
	if _, err := Sweep(SweepSpec{Batches: -1}); err == nil {
		t.Fatal("invalid spec accepted")
	} else {
		var se *SweepSpecError
		if !errors.As(err, &se) {
			t.Fatalf("error %T is not a *SweepSpecError: %v", err, err)
		}
	}
	// An unknown scheduler parses as a spec but fails option validation at
	// plan time, before any simulation starts.
	if _, err := Sweep(SweepSpec{Schedulers: []string{"NoSuchScheduler"}}); err == nil {
		t.Fatal("unknown scheduler accepted")
	} else {
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("error %T is not an *OptionError: %v", err, err)
		}
	}
}

func TestOptionsFingerprint(t *testing.T) {
	o := Options{Scheduler: SIBS, Bucket: Large, WorkloadSeed: 3}
	if o.Fingerprint() != o.Normalize().Fingerprint() {
		t.Fatal("fingerprint differs before and after Normalize")
	}
	if def, zero := (Options{}).Fingerprint(), mustPreset("paper").Fingerprint(); def != zero {
		t.Fatalf("zero Options and paper preset fingerprints differ:\n%s\n%s", def, zero)
	}

	variant := o
	variant.WorkloadSeed = 4
	if o.Fingerprint() == variant.Fingerprint() {
		t.Fatal("different workload seeds share a fingerprint")
	}
	faulted := o
	faulted.Faults = &FaultOptions{ICCrashMTBF: 600, ICCrashMTTR: 300}
	if o.Fingerprint() == faulted.Fingerprint() {
		t.Fatal("fault injection does not change the fingerprint")
	}

	// Observer-only switches never change what a run computes.
	observed := o
	observed.Trace = NewTraceRecorder()
	observed.Audit, observed.Verify = true, true
	if o.Fingerprint() != observed.Fingerprint() {
		t.Fatal("observer-only options changed the fingerprint")
	}
}

func TestOptionsValidatePublic(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options invalid: %v", err)
	}
	var oe *OptionError
	if err := (Options{Batches: -1}).Validate(); !errors.As(err, &oe) {
		t.Fatalf("want *OptionError, got %T: %v", err, err)
	}
	if err := (Options{Scheduler: "nope"}).Validate(); !errors.As(err, &oe) {
		t.Fatalf("unknown scheduler: want *OptionError, got %T: %v", err, err)
	}
	if err := (Options{Bucket: "nope"}).Validate(); !errors.As(err, &oe) {
		t.Fatalf("unknown bucket: want *OptionError, got %T: %v", err, err)
	}
}
