package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// fpCells builds n cells with distinct fingerprints.
func fpCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Index: i, Scheduler: "Op", Bucket: "uniform",
			Profile: "p", Fault: "none", Seed: int64(i),
			Fingerprint: "fp" + string(rune('a'+i)),
		}
	}
	return cells
}

// metricsRunner returns deterministic per-cell metrics.
func metricsRunner(runs *atomic.Int64) Runner[Metrics] {
	return func(ctx context.Context, c Cell) (Metrics, error) {
		if runs != nil {
			runs.Add(1)
		}
		return Metrics{Makespan: float64(100 + c.Index), Speedup: 2, Jobs: c.Index}, nil
	}
}

func TestRunCellsManifestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	cells := fpCells(4)

	// Pre-record two cells, as a crashed earlier sweep would have.
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:2] {
		if err := man.Append(c, Metrics{Makespan: float64(100 + c.Index), Speedup: 2, Jobs: c.Index}); err != nil {
			t.Fatal(err)
		}
	}
	man.Close()

	var runs atomic.Int64
	results, err := RunCells(context.Background(), cells, Config{ManifestPath: path}, metricsRunner(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("resume re-executed %d cells, want only the 2 incomplete ones", runs.Load())
	}
	for i, r := range results {
		want := Resumed
		if i >= 2 {
			want = Ran
		}
		if r.Origin != want {
			t.Fatalf("cell %d origin %v, want %v", i, r.Origin, want)
		}
		if r.Metrics.Makespan != float64(100+i) {
			t.Fatalf("cell %d makespan %v", i, r.Metrics.Makespan)
		}
	}

	// A third run resumes everything.
	runs.Store(0)
	if _, err := RunCells(context.Background(), cells, Config{ManifestPath: path}, metricsRunner(&runs)); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("fully-recorded sweep still executed %d cells", runs.Load())
	}
}

func TestManifestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	good, _ := json.Marshal(ManifestEntry{FP: "fpa", Metrics: Metrics{Makespan: 1}})
	torn := `{"fp":"fpb","metrics":{"mak` // crash mid-write
	if err := os.WriteFile(path, append(append(good, '\n'), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	if man.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 (torn tail discarded)", man.Len())
	}
	if _, ok := man.Lookup(Cell{Fingerprint: "fpa"}); !ok {
		t.Fatal("intact entry lost")
	}
	if _, ok := man.Lookup(Cell{Fingerprint: "fpb"}); ok {
		t.Fatal("torn entry surfaced")
	}
	// Appending after a torn tail still yields a loadable manifest: the tail
	// is healed on open, so the new entry survives a reload.
	if err := man.Append(Cell{Fingerprint: "fpc"}, Metrics{Makespan: 3}); err != nil {
		t.Fatal(err)
	}
	man.Close()
	reloaded, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	if reloaded.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2 (fpa and the post-tear append)", reloaded.Len())
	}
	if _, ok := reloaded.Lookup(Cell{Fingerprint: "fpc"}); !ok {
		t.Fatal("entry appended after a torn tail was lost on reload")
	}
}

func TestManifestAppendDedupAndEmptyFP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Fingerprint: "x"}
	if err := man.Append(c, Metrics{Makespan: 1}); err != nil {
		t.Fatal(err)
	}
	if err := man.Append(c, Metrics{Makespan: 2}); err != nil {
		t.Fatal(err)
	}
	if err := man.Append(Cell{}, Metrics{Makespan: 3}); err != nil {
		t.Fatal(err)
	}
	man.Close()
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("manifest has %d lines, want 1 (duplicate and unfingerprinted appends skipped)", n)
	}
}

func TestRunCellsSinks(t *testing.T) {
	cells := fpCells(3)
	var jsonl, csvBuf bytes.Buffer
	results, err := RunCells(context.Background(), cells,
		Config{JSONL: &jsonl, CSV: &csvBuf}, metricsRunner(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL has %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", i, err)
		}
		if int(row["index"].(float64)) != i {
			t.Fatalf("JSONL line %d has index %v; rows must stream in cell order", i, row["index"])
		}
		metrics, ok := row["metrics"].(map[string]any)
		if !ok || row["origin"] != "ran" || metrics["makespan"].(float64) != float64(100+i) {
			t.Fatalf("JSONL line %d = %v", i, row)
		}
	}

	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 cells
		t.Fatalf("CSV has %d rows, want 4", len(rows))
	}
	wantHeader := append([]string{"index", "scheduler", "bucket", "profile", "fault", "cost", "seed", "origin"}, MetricNames()...)
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Fatalf("CSV header[%d] = %q, want %q", i, rows[0][i], h)
		}
	}
	if rows[1][0] != "0" || rows[2][0] != "1" || rows[3][0] != "2" {
		t.Fatalf("CSV rows out of cell order: %v", rows[1:])
	}
}

func TestRunCellsProgress(t *testing.T) {
	cells := fpCells(4)
	cells[3].Fingerprint = cells[0].Fingerprint // one dedup pair
	var calls []int
	_, err := RunCells(context.Background(), cells, Config{
		Workers:  1,
		Progress: func(done, total int) { calls = append(calls, done, total) },
	}, metricsRunner(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) < 2 {
		t.Fatal("progress never reported")
	}
	last, total := calls[len(calls)-2], calls[len(calls)-1]
	if last != 4 || total != 4 {
		t.Fatalf("final progress %d/%d, want 4/4 (dedup cells must count)", last, total)
	}
	for i := 2; i < len(calls); i += 2 {
		if calls[i] < calls[i-2] {
			t.Fatalf("progress went backwards: %v", calls)
		}
	}
}

func TestAggregate(t *testing.T) {
	results := []Result{
		{Cell: Cell{Scheduler: "Op", Bucket: "small"}, Metrics: Metrics{Makespan: 100, Jobs: 10}},
		{Cell: Cell{Scheduler: "Op", Bucket: "small"}, Metrics: Metrics{Makespan: 300, Jobs: 20}},
		{Cell: Cell{Scheduler: "SIBS", Bucket: "small"}, Metrics: Metrics{Makespan: 50}},
	}
	groups := Aggregate(results, GroupBySchedulerBucket)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// First-appearance order.
	if groups[0].Key != "Op/small" || groups[1].Key != "SIBS/small" {
		t.Fatalf("group order: %q, %q", groups[0].Key, groups[1].Key)
	}
	g := groups[0]
	mk := g.Metric("makespan")
	if g.N != 2 || mk.Mean != 200 || mk.Min != 100 || mk.Max != 300 {
		t.Fatalf("Op/small makespan agg = %+v (n=%d)", mk, g.N)
	}
	if want := math.Sqrt(20000); math.Abs(mk.Std-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", mk.Std, want)
	}
	if jobs := g.Metric("jobs"); jobs.Mean != 15 {
		t.Fatalf("jobs mean = %v", jobs.Mean)
	}
	if unknown := g.Metric("no_such_metric"); unknown.N != 0 {
		t.Fatalf("unknown metric returned %+v", unknown)
	}
	if key := GroupByScheduler(results[2].Cell); key != "SIBS" {
		t.Fatalf("GroupByScheduler = %q", key)
	}
}

func TestMetricsValueCoversAllNames(t *testing.T) {
	m := Metrics{Makespan: 1, Speedup: 2, BurstRatio: 3, ICUtil: 4, ECUtil: 5, TSeq: 6,
		Jobs: 7, Chunks: 8, PeakCount: 9, TotalStall: 10, ECMachineSeconds: 11, Retries: 12, Fallbacks: 13,
		CostRental: 14, CostCommitted: 15, CostBudget: 16, BudgetDenials: 17,
		Conflicts: 18, Replacements: 19, CommitRetries: 20, AdmissionViolations: 21}
	seen := make(map[float64]bool)
	for _, name := range MetricNames() {
		v := m.Value(name)
		if v < 1 || v > 21 || seen[v] {
			t.Fatalf("metric %q maps to %v (missing or duplicate field)", name, v)
		}
		seen[v] = true
	}
	if len(seen) != 21 {
		t.Fatalf("MetricNames covers %d fields, want 21", len(seen))
	}
}

func TestCheckPlannedResumeMismatch(t *testing.T) {
	unpriced := "v1|sched=Op|bucket=uniform|ic=4|seed=1"
	priced := unpriced + "|cost=od0.10,b0.25"
	record := func(t *testing.T, fps ...string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "m")
		man, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			if err := man.Append(Cell{Fingerprint: fp}, Metrics{Makespan: 1}); err != nil {
				t.Fatal(err)
			}
		}
		man.Close()
		return path
	}
	check := func(t *testing.T, path string, planned ...string) error {
		t.Helper()
		man, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		defer man.Close()
		cells := make([]Cell, len(planned))
		for i, fp := range planned {
			cells[i] = Cell{Fingerprint: fp}
		}
		return man.CheckPlanned(cells)
	}

	t.Run("unpriced-manifest-priced-spec", func(t *testing.T) {
		err := check(t, record(t, unpriced), priced)
		var rm *ResumeMismatchError
		if !errors.As(err, &rm) {
			t.Fatalf("mismatch not detected: %v", err)
		}
		if rm.RecordedFP != unpriced || rm.PlannedFP != priced {
			t.Fatalf("error names wrong fingerprints: %+v", rm)
		}
		for _, fp := range []string{unpriced, priced} {
			if !strings.Contains(err.Error(), fp) {
				t.Fatalf("message omits %q: %v", fp, err)
			}
		}
	})
	t.Run("priced-manifest-unpriced-spec", func(t *testing.T) {
		err := check(t, record(t, priced), unpriced)
		var rm *ResumeMismatchError
		if !errors.As(err, &rm) {
			t.Fatalf("mismatch not detected: %v", err)
		}
		if rm.RecordedFP != priced || rm.PlannedFP != unpriced {
			t.Fatalf("error names wrong fingerprints: %+v", rm)
		}
	})
	t.Run("matching-records-pass", func(t *testing.T) {
		if err := check(t, record(t, priced), priced); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mixed-cost-grid-passes", func(t *testing.T) {
		// A Costs axis spanning free and priced sets plans both forms
		// directly — a half-finished manifest of such a grid is legitimate.
		if err := check(t, record(t, unpriced), unpriced, priced); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unrelated-records-pass", func(t *testing.T) {
		other := "v1|sched=Greedy|bucket=uniform|ic=4|seed=2"
		if err := check(t, record(t, other), priced); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("empty-manifest-passes", func(t *testing.T) {
		if err := check(t, record(t), priced); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunCellsRefusesRepricedManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	cells := fpCells(2)
	var runs atomic.Int64
	if _, err := RunCells(context.Background(), cells, Config{ManifestPath: path}, metricsRunner(&runs)); err != nil {
		t.Fatal(err)
	}

	// The same grid repriced: every fingerprint gains a cost suffix. The
	// resume must refuse instead of silently re-executing everything.
	repriced := fpCells(2)
	for i := range repriced {
		repriced[i].Fingerprint += "|cost=od0.10"
	}
	runs.Store(0)
	_, err := RunCells(context.Background(), repriced, Config{ManifestPath: path}, metricsRunner(&runs))
	var rm *ResumeMismatchError
	if !errors.As(err, &rm) {
		t.Fatalf("repriced resume not refused: %v", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("refused resume still executed %d cells", runs.Load())
	}
}
