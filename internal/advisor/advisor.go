// Package advisor turns a sweep's job-history store — the crash-safe
// resume manifest, one JSONL entry per completed configuration — into
// burst/no-burst recommendations. The manifest keys every record by its
// configuration fingerprint, a canonical "v1|sched=…|bucket=…|…" string;
// stripping the scheduler token yields a scenario key, so all schedulers
// measured under the same workload, network, fault and cost regime group
// together and can be compared head to head: did bursting actually beat
// keeping everything on the internal cloud, and at what rental price per
// second saved?
package advisor

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"cloudburst/internal/sweep"
)

// Entry is one job-history record: a configuration fingerprint split into
// its scheduler and scenario parts, plus the measured metrics.
type Entry struct {
	FP       string        // full configuration fingerprint
	Sched    string        // the fingerprint's sched= token value
	Scenario string        // the fingerprint with the sched= token removed
	Metrics  sweep.Metrics // measured run metrics
}

// ErrEmpty reports a manifest with no usable entries.
var ErrEmpty = errors.New("advisor: manifest holds no usable entries")

// ReadManifest loads the job-history store at path through the sweep's own
// manifest reader, so malformed lines are skipped as a torn tail is, and
// so are fingerprints without a sched= token. A history without a single
// usable entry is an error (ErrEmpty), as is an unreadable file.
func ReadManifest(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("advisor: open manifest: %w", err)
	}
	defer f.Close()
	var out []Entry
	err = sweep.ReadManifest(f, func(m sweep.ManifestEntry) {
		if sched, scenario, ok := splitFP(m.FP); ok {
			out = append(out, Entry{FP: m.FP, Sched: sched, Scenario: scenario, Metrics: m.Metrics})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("advisor: read manifest: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmpty, path)
	}
	return out, nil
}

// splitFP extracts the sched= token from a pipe-delimited fingerprint and
// returns the remainder as the scenario key.
func splitFP(fp string) (sched, scenario string, ok bool) {
	parts := strings.Split(fp, "|")
	rest := parts[:0]
	for _, p := range parts {
		if v, found := strings.CutPrefix(p, "sched="); found {
			sched, ok = v, true
			continue
		}
		rest = append(rest, p)
	}
	return sched, strings.Join(rest, "|"), ok
}

// Advice is the recommendation for one scenario: whether bursting paid off
// there, backed by the records it was derived from.
type Advice struct {
	// Scenario is the fingerprint-derived key shared by the compared runs.
	Scenario string
	// Baseline is the no-burst reference: the ICOnly record when the
	// history has one, else the slowest record (a conservative stand-in,
	// flagged by BaselineIsICOnly=false).
	Baseline         Entry
	BaselineIsICOnly bool
	// Estimated marks a stand-in baseline: the history has no ICOnly run
	// for this scenario, so SecondsSaved and CostPerHourSaved compare the
	// best bursting run against the slowest one — the spread between
	// bursting strategies, not a measured gain over keeping everything on
	// the internal cloud. Consumers must present these figures as
	// estimates, never as measured savings.
	Estimated bool
	// Best is the fastest bursting record of the scenario.
	Best Entry
	// Burst is the recommendation: the best bursting run beat the baseline
	// makespan and its committed spend stayed within its budget.
	Burst bool
	// SecondsSaved is baseline minus best makespan (positive = bursting
	// helped). CostPerHourSaved prices that gain from the best run's rental
	// spend; 0 when the history carries no cost figures or nothing was
	// saved. Both are estimates when Estimated is set.
	SecondsSaved     float64
	CostPerHourSaved float64
}

// Advise groups the history by scenario and recommends burst/no-burst per
// scenario, in sorted scenario order. Scenarios with only one scheduler on
// record are skipped — there is nothing to compare. Duplicate records of
// the same fingerprint keep the last occurrence, matching manifest resume
// semantics.
func Advise(entries []Entry) []Advice {
	latest := make(map[string]Entry, len(entries))
	order := make([]string, 0, len(entries))
	for _, e := range entries {
		if _, seen := latest[e.FP]; !seen {
			order = append(order, e.FP)
		}
		latest[e.FP] = e
	}
	byScenario := make(map[string][]Entry)
	for _, fp := range order {
		e := latest[fp]
		byScenario[e.Scenario] = append(byScenario[e.Scenario], e)
	}
	keys := make([]string, 0, len(byScenario))
	for k := range byScenario {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []Advice
	for _, k := range keys {
		group := byScenario[k]
		if len(group) < 2 {
			continue
		}
		a := Advice{Scenario: k}
		for _, e := range group {
			if e.Sched == "ICOnly" {
				a.Baseline, a.BaselineIsICOnly = e, true
			}
		}
		var haveBest bool
		for _, e := range group {
			if e.Sched == "ICOnly" {
				continue
			}
			if !haveBest || e.Metrics.Makespan < a.Best.Metrics.Makespan {
				a.Best, haveBest = e, true
			}
			if !a.BaselineIsICOnly && e.Metrics.Makespan > a.Baseline.Metrics.Makespan {
				a.Baseline = e
			}
		}
		if !haveBest {
			continue // ICOnly-only scenario: nothing bursted
		}
		a.Estimated = !a.BaselineIsICOnly
		a.SecondsSaved = a.Baseline.Metrics.Makespan - a.Best.Metrics.Makespan
		withinBudget := a.Best.Metrics.CostBudget <= 0 ||
			a.Best.Metrics.CostCommitted <= a.Best.Metrics.CostBudget
		a.Burst = a.SecondsSaved > 0 && withinBudget
		if a.SecondsSaved > 0 && a.Best.Metrics.CostRental > 0 {
			a.CostPerHourSaved = a.Best.Metrics.CostRental / (a.SecondsSaved / 3600)
		}
		out = append(out, a)
	}
	return out
}
