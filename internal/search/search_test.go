package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudburst/internal/sweep"
)

// synthRunner builds a deterministic synthetic probe environment: the
// runner encodes the probed value into Makespan and a seed-derived rank
// into Jobs, so predicates can threshold on the value and the hill-climb
// has a seed-dependent margin to maximize — no simulation involved.
type synthRunner struct {
	calls int
}

func (s *synthRunner) run(_ context.Context, v float64, seed int64) (sweep.Metrics, error) {
	s.calls++
	return sweep.Metrics{Makespan: v, Jobs: int(seed % 97)}, nil
}

func synthCell(v float64, seed int64) (sweep.Cell, error) {
	c := sweep.SynthCell("Op", "uniform", "x", v, seed)
	c.Fingerprint = fmt.Sprintf("syn|x=%g|seed=%d", v, seed)
	return c, nil
}

// thresholdPred holds when the probed value exceeds thr, with a tiny
// seed-dependent tiebreaker so the climb has something to climb.
func thresholdPred(name string, thr float64) Predicate {
	return Predicate{
		Name: name,
		Margin: func(m sweep.Metrics) float64 {
			return m.Makespan - thr + float64(m.Jobs)*1e-9
		},
	}
}

func synthConfig(preds ...Predicate) Config {
	return Config{
		Axis:       Axis{Name: "x", Min: 1, Max: 3, Tolerance: 0.05},
		Predicates: preds,
		Synth:      synthCell,
	}
}

func TestRunBisectsToTolerance(t *testing.T) {
	const thr = 2.2
	r := &synthRunner{}
	rows, err := Run(context.Background(), synthConfig(thresholdPred("p", thr)), r.run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	row := rows[0]
	if !row.Crossed {
		t.Fatalf("no crossing located: %+v", row)
	}
	if row.HiValue-row.LoValue > 0.05 {
		t.Fatalf("bracket [%g, %g] wider than tolerance", row.LoValue, row.HiValue)
	}
	if row.LoValue > thr || row.HiValue < thr {
		t.Fatalf("bracket [%g, %g] does not contain the true threshold %g", row.LoValue, row.HiValue, thr)
	}
	if row.Crossing < row.LoValue || row.Crossing > row.HiValue {
		t.Fatalf("crossing %g outside the final bracket [%g, %g]", row.Crossing, row.LoValue, row.HiValue)
	}
	if row.LoHolds || !row.HiHolds {
		t.Fatalf("endpoint verdicts flipped: lo=%v hi=%v", row.LoHolds, row.HiHolds)
	}
	// 2 endpoints + bisection steps + 4 default climb candidates, all real.
	if row.Probes != r.calls {
		t.Fatalf("row counts %d probes, runner saw %d", row.Probes, r.calls)
	}
	if row.WorstSeed == 0 || row.WorstMargin <= 0 {
		t.Fatalf("climb did not settle a worst seed: %+v", row)
	}
}

func TestRunNoCrossing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		thr   float64
		holds bool
	}{
		{"holds-at-both-ends", 0.5, true},
		{"holds-at-neither-end", 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &synthRunner{}
			rows, err := Run(context.Background(), synthConfig(thresholdPred("p", tc.thr)), r.run)
			if err != nil {
				t.Fatal(err)
			}
			row := rows[0]
			if row.Crossed || row.Crossing != 0 {
				t.Fatalf("phantom crossing: %+v", row)
			}
			if row.LoValue != 1 || row.HiValue != 3 {
				t.Fatalf("bracket moved without a crossing: [%g, %g]", row.LoValue, row.HiValue)
			}
			if row.LoHolds != tc.holds || row.HiHolds != tc.holds {
				t.Fatalf("endpoint verdicts: lo=%v hi=%v, want both %v", row.LoHolds, row.HiHolds, tc.holds)
			}
			if row.Probes != 2 || r.calls != 2 {
				t.Fatalf("agreeing endpoints should cost exactly 2 probes, got row=%d runner=%d", row.Probes, r.calls)
			}
			if row.WorstSeed != 0 {
				t.Fatalf("climb ran without a crossing: %+v", row)
			}
		})
	}
}

func TestRunMaxProbesCap(t *testing.T) {
	cfg := synthConfig(thresholdPred("p", 2.2))
	cfg.Axis.Tolerance = 0.001
	cfg.MaxProbes = 3 // 2 endpoints + 1 midpoint
	cfg.ClimbSeeds = -1
	r := &synthRunner{}
	rows, err := Run(context.Background(), cfg, r.run)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Probes != 3 || r.calls != 3 {
		t.Fatalf("probe budget not honored: row=%d runner=%d", row.Probes, r.calls)
	}
	if !row.Crossed {
		t.Fatal("budget exhaustion must still report the (wide) crossing bracket")
	}
	if row.HiValue-row.LoValue <= cfg.Axis.Tolerance {
		t.Fatalf("bracket [%g, %g] unexpectedly converged within 3 probes", row.LoValue, row.HiValue)
	}
	if row.WorstSeed != 0 {
		t.Fatal("negative ClimbSeeds must disable the climb")
	}
}

func TestRunValidation(t *testing.T) {
	base := func() Config { return synthConfig(thresholdPred("p", 2.2)) }
	run := (&synthRunner{}).run
	for _, tc := range []struct {
		name   string
		mut    func(*Config)
		nilRun bool
		field  string
	}{
		{"nil-runner", func(c *Config) {}, true, "runner"},
		{"nil-synth", func(c *Config) { c.Synth = nil }, false, "synth"},
		{"unnamed-axis", func(c *Config) { c.Axis.Name = "" }, false, "axis"},
		{"empty-bracket", func(c *Config) { c.Axis.Min, c.Axis.Max = 2, 2 }, false, "axis"},
		{"inverted-bracket", func(c *Config) { c.Axis.Min, c.Axis.Max = 3, 1 }, false, "axis"},
		{"negative-tolerance", func(c *Config) { c.Axis.Tolerance = -1 }, false, "axis"},
		{"tolerance-over-width", func(c *Config) { c.Axis.Tolerance = 2 }, false, "axis"},
		{"no-predicates", func(c *Config) { c.Predicates = nil }, false, "predicates"},
		{"unnamed-predicate", func(c *Config) { c.Predicates[0].Name = "" }, false, "predicates[0]"},
		{"margin-less-predicate", func(c *Config) { c.Predicates[0].Margin = nil }, false, "predicates[0]"},
		{"duplicate-predicates", func(c *Config) {
			c.Predicates = append(c.Predicates, thresholdPred("p", 1.5))
		}, false, "predicates[1]"},
		{"negative-max-probes", func(c *Config) { c.MaxProbes = -1 }, false, "maxProbes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			r := run
			if tc.nilRun {
				r = nil
			}
			_, err := Run(context.Background(), cfg, r)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("err %T is not a *search.Error: %v", err, err)
			}
			if se.Field != tc.field {
				t.Fatalf("err field = %q, want %q (%v)", se.Field, tc.field, err)
			}
		})
	}
}

func TestRunMemoSharesProbesAcrossPredicates(t *testing.T) {
	// Two predicates with the same threshold walk the same probe sequence:
	// the second is served entirely from the memo, yet still reports the
	// same probe count so artifacts do not depend on predicate order.
	r := &synthRunner{}
	rows, err := Run(context.Background(),
		synthConfig(thresholdPred("a", 2.2), thresholdPred("b", 2.2)), r.run)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Probes != rows[1].Probes {
		t.Fatalf("probe counts diverge: %d vs %d", rows[0].Probes, rows[1].Probes)
	}
	if r.calls != rows[0].Probes {
		t.Fatalf("runner executed %d probes, want only the first predicate's %d", r.calls, rows[0].Probes)
	}
	a, b := rows[0], rows[1]
	a.Predicate, b.Predicate = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical predicates located different frontiers:\n%+v\n%+v", a, b)
	}
}

func TestRunManifestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.manifest")
	cfg := synthConfig(thresholdPred("p", 2.2))
	cfg.ManifestPath = path

	r1 := &synthRunner{}
	rows1, err := Run(context.Background(), cfg, r1.run)
	if err != nil {
		t.Fatal(err)
	}

	// A finished search resumed wholesale: zero executions, same rows.
	r2 := &synthRunner{}
	var cached int
	cfg.OnProbe = func(_ sweep.Cell, _ sweep.Metrics, wasCached bool) {
		if wasCached {
			cached++
		}
	}
	rows2, err := Run(context.Background(), cfg, r2.run)
	if err != nil {
		t.Fatal(err)
	}
	if r2.calls != 0 {
		t.Fatalf("fully recorded search re-executed %d probes", r2.calls)
	}
	if cached != rows1[0].Probes {
		t.Fatalf("cached %d probes, want all %d", cached, rows1[0].Probes)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("resumed rows diverge:\n%+v\n%+v", rows1, rows2)
	}

	// A killed search: truncate the journal to its first 3 records and
	// resume — only the missing probes execute, the rows still match.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	kept := 3
	if err := os.WriteFile(path, []byte(strings.Join(lines[:kept], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := &synthRunner{}
	cfg.OnProbe = nil
	rows3, err := Run(context.Background(), cfg, r3.run)
	if err != nil {
		t.Fatal(err)
	}
	// The memo dedups within the run, so distinct executions = distinct
	// fingerprints beyond the kept records.
	if want := countManifestRecords(t, path) - kept; r3.calls != want {
		t.Fatalf("partial resume executed %d probes, want %d", r3.calls, want)
	}
	if !reflect.DeepEqual(rows1, rows3) {
		t.Fatalf("partially resumed rows diverge:\n%+v\n%+v", rows1, rows3)
	}
}

func countManifestRecords(t *testing.T, path string) int {
	t.Helper()
	man, err := sweep.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	return man.Len()
}

func TestRunAuditGateRefusesUnauditedRecords(t *testing.T) {
	auditPred := Predicate{
		Name:       "aud",
		NeedsAudit: true,
		Margin:     func(m sweep.Metrics) float64 { return m.Makespan - 2.2 },
	}

	// Pre-record the lo endpoint twice over: once unaudited (a plain sweep
	// wrote it), once audited, under runs with and without the gate.
	loCell, _ := synthCell(1, 1)
	for name, audited := range map[string]bool{"unaudited": false, "audited": true} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "m")
			man, err := sweep.OpenManifest(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := man.Append(loCell, sweep.Metrics{Makespan: 1, Audited: audited}); err != nil {
				t.Fatal(err)
			}
			man.Close()

			cfg := synthConfig(auditPred)
			cfg.ManifestPath = p
			cfg.ClimbSeeds = -1
			var loCached bool
			cfg.OnProbe = func(c sweep.Cell, _ sweep.Metrics, wasCached bool) {
				if c.Fingerprint == loCell.Fingerprint {
					loCached = wasCached
				}
			}
			auditRunner := func(ctx context.Context, v float64, seed int64) (sweep.Metrics, error) {
				return sweep.Metrics{Makespan: v, Audited: true}, nil
			}
			if _, err := Run(context.Background(), cfg, auditRunner); err != nil {
				t.Fatal(err)
			}
			if loCached != audited {
				t.Fatalf("audit gate: recorded probe (audited=%v) cached=%v", audited, loCached)
			}
		})
	}
}

func TestRunWorstSeedClimb(t *testing.T) {
	// Coarse tolerance: one midpoint probe (x=2, which holds thanks to the
	// seed tiebreaker) settles the bracket at [1, 2], so the violating edge
	// is the hi endpoint and the climb candidates are fully predictable.
	cfg := synthConfig(thresholdPred("p", 2))
	cfg.Axis.Tolerance = 1.9
	cfg.ClimbSeeds = 4
	r := &synthRunner{}
	rows, err := Run(context.Background(), cfg, r.run)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if !row.Crossed || row.HiValue != 2 {
		t.Fatalf("unexpected bracket: %+v", row)
	}
	// Recompute the expected winner: base seed 1 plus 4 derived candidates,
	// margin tiebreaker = (seed mod 97) * 1e-9.
	wantSeed, wantRank := int64(1), int64(1%97)
	for k := 1; k <= 4; k++ {
		s := sweep.ProbeSeed(1, "x=2", k)
		if rank := s % 97; rank > wantRank {
			wantSeed, wantRank = s, rank
		}
	}
	if row.WorstSeed != wantSeed {
		t.Fatalf("worst seed = %d, want %d", row.WorstSeed, wantSeed)
	}
	if row.WorstMetrics.Jobs != int(wantRank) {
		t.Fatalf("worst metrics not from the worst seed: %+v", row.WorstMetrics)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &synthRunner{}
	_, err := Run(ctx, synthConfig(thresholdPred("p", 2.2)), r.run)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v", err)
	}
	if r.calls != 0 {
		t.Fatalf("cancelled search executed %d probes", r.calls)
	}
}

func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	want := []string{"speedup-collapse", "admission-violation", "budget-fallback", "oo-stagnation"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("preset names = %v, want %v", names, want)
	}
	all, err := PresetSet(nil)
	if err != nil || len(all) != len(want) {
		t.Fatalf("empty selection: %v, %v", all, err)
	}
	two, err := PresetSet([]string{"budget-fallback", "speedup-collapse"})
	if err != nil || len(two) != 2 || two[0].Name != "budget-fallback" {
		t.Fatalf("selection order not preserved: %v, %v", two, err)
	}
	var se *Error
	if _, err := PresetSet([]string{"bogus"}); !errors.As(err, &se) {
		t.Fatalf("unknown predicate accepted: %v", err)
	}
	if _, err := PresetSet([]string{"oo-stagnation", "oo-stagnation"}); !errors.As(err, &se) {
		t.Fatalf("duplicate predicate accepted: %v", err)
	}
	if !NeedsAuditAny(all) {
		t.Fatal("admission-violation must demand the audit stream")
	}
	if NeedsAuditAny(two) {
		t.Fatal("audit demanded by predicates that do not read audit metrics")
	}
}

func TestPresetMargins(t *testing.T) {
	byName := make(map[string]Predicate)
	for _, p := range Presets() {
		byName[p.Name] = p
	}
	if p := byName["speedup-collapse"]; !p.Holds(sweep.Metrics{Speedup: 0.8}) || p.Holds(sweep.Metrics{Speedup: 1.2}) {
		t.Fatal("speedup-collapse threshold is not speedup < 1")
	}
	if p := byName["admission-violation"]; !p.Holds(sweep.Metrics{AdmissionViolations: 1}) || p.Holds(sweep.Metrics{}) {
		t.Fatal("admission-violation threshold is not violations > 0")
	}
	if p := byName["budget-fallback"]; !p.Holds(sweep.Metrics{BudgetDenials: 3}) || p.Holds(sweep.Metrics{}) {
		t.Fatal("budget-fallback threshold is not denials > 0")
	}
	p := byName["oo-stagnation"]
	if p.Holds(sweep.Metrics{Makespan: 0, TotalStall: 50}) {
		t.Fatal("oo-stagnation must not hold on a zero makespan")
	}
	if !p.Holds(sweep.Metrics{Makespan: 100, TotalStall: 30}) || p.Holds(sweep.Metrics{Makespan: 100, TotalStall: 20}) {
		t.Fatalf("oo-stagnation threshold is not stall fraction > %g", StagnationFraction)
	}
}

func TestWriteRowsDeterministic(t *testing.T) {
	r := &synthRunner{}
	rows, err := Run(context.Background(), synthConfig(thresholdPred("p", 2.2)), r.run)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteRows(&a, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteRows is not deterministic")
	}
	if n := bytes.Count(a.Bytes(), []byte("\n")); n != len(rows) {
		t.Fatalf("artifact has %d lines for %d rows", n, len(rows))
	}
}
