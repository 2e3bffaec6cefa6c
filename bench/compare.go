package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// definition is the part of BENCHMARK.json that -compare reads.
type definition struct {
	EndToEnd []bound `json:"end_to_end"`
}

// bound is how far an end-to-end metric may get worse before a change
// counts as a regression, as a share of the base median.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one metric of one workload over a set of result files.
type side struct {
	median float64
	// samples are the per-file values, or the per-round values when the
	// side is a single file; their spread is the side's noise.
	samples []float64
}

// compareMain compares two sets of -json result files metric by metric and
// workload by workload, against the bounds in the benchmark definition.
// It exits 1 when any metric regressed.
func compareMain(defPath, basePattern, newPattern string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(defPath)
	var def definition
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: reading %s: %v\n", defPath, err)
		return 2
	}
	base, err := loadSide(basePattern)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	next, err := loadSide(newPattern)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	fmt.Fprintf(stdout, "%-18s", "workload")
	for _, b := range def.EndToEnd {
		fmt.Fprintf(stdout, " %-24s", fmt.Sprintf("%s (±%g%%)", b.Name, 100*b.Bound))
	}
	fmt.Fprintln(stdout)
	status := 0
	for _, w := range workloads {
		bm, nm := base[w.name], next[w.name]
		if bm == nil || nm == nil {
			continue
		}
		fmt.Fprintf(stdout, "%-18s", w.name)
		for _, b := range def.EndToEnd {
			change, verdict := judge(bm[b.Name], nm[b.Name], b)
			if verdict == "regressed" {
				status = 1
			}
			fmt.Fprintf(stdout, " %-24s", fmt.Sprintf("%+.1f%% %s", 100*change, verdict))
		}
		fmt.Fprintln(stdout)
	}
	return status
}

// judge compares the new side with the base. It reports the relative change
// of the median and a verdict: better or regressed when the change exceeds
// the bound, no worse when it does not, and unresolved when either side's
// own spread exceeds the bound, unless every new sample beats every base
// sample.
func judge(base, next side, b bound) (change float64, verdict string) {
	change = (next.median - base.median) / base.median
	worse := change
	if b.Better == "higher" {
		worse = -change
	}
	beats := func(x, y float64) bool {
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	switch {
	case len(base.samples) == 0 || len(next.samples) == 0:
		return change, "missing"
	case spread(base.samples) > b.Bound || spread(next.samples) > b.Bound:
		for _, n := range next.samples {
			for _, p := range base.samples {
				if !beats(n, p) {
					return change, "unresolved"
				}
			}
		}
		return change, "better"
	case worse > b.Bound:
		return change, "regressed"
	case worse < -b.Bound:
		return change, "better"
	}
	return change, "no worse"
}

// loadSide reads every -json result file the pattern matches and gathers
// each workload's metrics across them.
func loadSide(pattern string) (map[string]map[string]side, error) {
	paths, err := filepath.Glob(pattern)
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("no result files match %q", pattern)
	}
	if err != nil {
		return nil, err
	}
	values := map[string]map[string][]float64{}
	rounds := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Trace {
			return nil, fmt.Errorf("%s: traced results carry no end-to-end metrics", p)
		}
		for _, w := range f.Workloads {
			if values[w.Name] == nil {
				values[w.Name], rounds[w.Name] = map[string][]float64{}, map[string][]float64{}
			}
			for name, m := range w.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
				rounds[w.Name][name] = m.Rounds
			}
		}
	}
	out := map[string]map[string]side{}
	for w, metrics := range values {
		out[w] = map[string]side{}
		for name, vs := range metrics {
			s := side{median: median(vs), samples: vs}
			if len(vs) == 1 {
				s.samples = rounds[w][name]
			}
			out[w][name] = s
		}
	}
	return out, nil
}
