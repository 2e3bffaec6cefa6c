// Command benchreport converts `go test -bench` output into a
// machine-readable BENCH.json and compares two such reports under
// regression tolerances.
//
// Record mode (default) reads benchmark output from stdin or -in and
// writes the JSON report to stdout or -o:
//
//	go test -run xxx -bench . -benchtime 1x -benchmem -count 5 . | benchreport -o BENCH.json
//
// Rows that -count repeats fold into one row per benchmark holding the
// median of each metric and the number of rows folded.
//
// Compare mode gates a candidate report against a committed baseline:
//
//	benchreport -compare BENCH.json BENCH.ci.json -ns-tol 2.0 -allocs-tol 0.15
//
// It exits nonzero when any benchmark present in both reports regresses
// beyond tolerance, when a candidate benchmark has no baseline row (a
// renamed or new benchmark must enter the baseline to be gated at all), or
// when a baseline benchmark has no candidate row (a deleted or renamed
// benchmark must leave the baseline, or its gate would vanish unnoticed).
// Allocations per op are effectively machine-independent, so their
// tolerance is tight; wall time varies with hardware and load, so its
// tolerance is loose — tune both to the stability of the environment.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one measured benchmark result. BytesPerOp and AllocsPerOp
// are pointers because absence means "not measured" (the bench ran without
// -benchmem), which is different from a measured zero — a zero-allocation
// benchmark must round-trip its hard-won 0, and an unmeasured one must not
// be mistaken for allocation-free.
type Benchmark struct {
	Name string `json:"name"`
	// Samples counts the result rows folded into this one (go test -count);
	// every metric below is their median.
	Samples     int      `json:"samples,omitempty"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "cells/sec"). Recorded
	// for the report, never gated: their direction (higher- or lower-is-
	// better) is metric-specific and unknown to the comparator.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH.json document.
type Report struct {
	Go         string      `json:"go,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches the head of one result row of `go test -bench` output,
// e.g.
//
//	BenchmarkTable1Metrics-8    1    100248665 ns/op    35047600 B/op    30215 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so reports from differently sized
// machines stay comparable. The measurement tail is a sequence of
// value/unit pairs parsed by parseMetrics — custom b.ReportMetric units
// (like "cells/sec") can appear anywhere among the standard three.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// parseMetrics fills b from the value/unit pair list after the iteration
// count. It reports whether an ns/op pair was present — the marker of a
// real benchmark result line.
func parseMetrics(b *Benchmark, fields []string) bool {
	sawNs := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			sawNs = true
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return sawNs
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	goLine := regexp.MustCompile(`^(?:goos|pkg): `)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case len(line) > 5 && line[:5] == "cpu: ":
			rep.CPU = line[5:]
		case goLine.MatchString(line):
			// informational; ignored
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			b := Benchmark{Name: m[1]}
			b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
			if !parseMetrics(&b, strings.Fields(m[3])) {
				continue
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// fold merges the rows of each benchmark into one row of per-metric
// medians, sorted by name. A metric absent from every row stays absent.
func fold(rows []Benchmark) []Benchmark {
	groups := make(map[string][]Benchmark)
	for _, b := range rows {
		groups[b.Name] = append(groups[b.Name], b)
	}
	out := make([]Benchmark, 0, len(groups))
	for name, rs := range groups {
		b := Benchmark{
			Name:        name,
			Samples:     len(rs),
			Iterations:  int64(*median(rs, func(b Benchmark) *float64 { v := float64(b.Iterations); return &v })),
			NsPerOp:     *median(rs, func(b Benchmark) *float64 { return &b.NsPerOp }),
			BytesPerOp:  median(rs, func(b Benchmark) *float64 { return b.BytesPerOp }),
			AllocsPerOp: median(rs, func(b Benchmark) *float64 { return b.AllocsPerOp }),
		}
		for _, unit := range extraUnits(rs...) {
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = *median(rs, func(b Benchmark) *float64 {
				if v, ok := b.Extra[unit]; ok {
					return &v
				}
				return nil
			})
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// median returns the median of the values get reads from rows, the mean
// of the middle two for an even count, or nil when no row has a value.
func median(rows []Benchmark, get func(Benchmark) *float64) *float64 {
	var vs []float64
	for _, b := range rows {
		if v := get(b); v != nil {
			vs = append(vs, *v)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	sort.Float64s(vs)
	m := vs[len(vs)/2]
	if len(vs)%2 == 0 {
		m = (vs[len(vs)/2-1] + m) / 2
	}
	return &m
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare reports regressions of cand against base, returning the failure
// lines. A candidate benchmark missing from base fails: nothing gates it.
// A baseline benchmark missing from cand fails too: its gate was dropped.
// A metric regresses when cand > base*(1+tol); a zero baseline
// ns/op is skipped (nothing meaningful to ratio against), and allocs/op is
// gated only when both sides actually measured it — an absent metric means
// the bench ran without -benchmem, not that it allocated nothing.
func compare(base, cand *Report, nsTol, allocsTol float64, out io.Writer) []string {
	byName := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	inCand := make(map[string]bool, len(cand.Benchmarks))
	for _, c := range cand.Benchmarks {
		inCand[c.Name] = true
	}
	for _, b := range base.Benchmarks {
		if !inCand[b.Name] {
			failures = append(failures, fmt.Sprintf("%s: baseline row has no candidate run", b.Name))
			fmt.Fprintf(out, "DROPPED   %-40s %12.0f ns/op\n", b.Name, b.NsPerOp)
		}
	}
	for _, c := range cand.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no baseline row to gate against", c.Name))
			fmt.Fprintf(out, "MISSING   %-40s %12.0f ns/op", c.Name, c.NsPerOp)
			if c.AllocsPerOp != nil {
				fmt.Fprintf(out, " %10.0f allocs/op", *c.AllocsPerOp)
			}
			for _, unit := range extraUnits(Benchmark{}, c) {
				fmt.Fprintf(out, " %10.4g %s", c.Extra[unit], unit)
			}
			fmt.Fprintln(out)
			continue
		}
		check := func(metric string, baseV, candV, tol float64) {
			if baseV <= 0 {
				return
			}
			ratio := candV / baseV
			status := "ok"
			if candV > baseV*(1+tol) {
				status = "REGRESSED"
				failures = append(failures, fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%, tol %+.0f%%)",
					c.Name, metric, baseV, candV, (ratio-1)*100, tol*100))
			}
			fmt.Fprintf(out, "%-9s %-40s %-9s %12.4g -> %12.4g (%+.1f%%)\n",
				status, c.Name, metric, baseV, candV, (ratio-1)*100)
		}
		check("ns/op", b.NsPerOp, c.NsPerOp, nsTol)
		switch {
		case b.AllocsPerOp != nil && c.AllocsPerOp != nil:
			// A measured-zero baseline is a promise, not a skip: any
			// candidate allocation regresses it.
			if *b.AllocsPerOp == 0 && *c.AllocsPerOp > 0 {
				failures = append(failures, fmt.Sprintf("%s allocs/op: 0 -> %.4g (was allocation-free)",
					c.Name, *c.AllocsPerOp))
				fmt.Fprintf(out, "%-9s %-40s %-9s %12.4g -> %12.4g\n",
					"REGRESSED", c.Name, "allocs/op", 0.0, *c.AllocsPerOp)
			} else {
				check("allocs/op", *b.AllocsPerOp, *c.AllocsPerOp, allocsTol)
			}
		case b.AllocsPerOp != nil || c.AllocsPerOp != nil:
			side := "baseline"
			if b.AllocsPerOp != nil {
				side = "candidate"
			}
			fmt.Fprintf(out, "%-9s %-40s %-9s not measured in %s\n", "skipped", c.Name, "allocs/op", side)
		}
		// Custom b.ReportMetric units (e.g. "cells/sec") are informational:
		// their better-direction is metric-specific, so they are shown with
		// their drift but never gate the comparison.
		for _, unit := range extraUnits(b, c) {
			bv, bok := b.Extra[unit]
			cv, cok := c.Extra[unit]
			switch {
			case bok && cok:
				drift := ""
				if bv > 0 {
					drift = fmt.Sprintf(" (%+.1f%%)", (cv/bv-1)*100)
				}
				fmt.Fprintf(out, "%-9s %-40s %-9s %12.4g -> %12.4g%s\n", "info", c.Name, unit, bv, cv, drift)
			case cok:
				fmt.Fprintf(out, "%-9s %-40s %-9s %28.4g (new metric)\n", "info", c.Name, unit, cv)
			default:
				fmt.Fprintf(out, "%-9s %-40s %-9s not measured in candidate\n", "info", c.Name, unit)
			}
		}
	}
	return failures
}

// extraUnits returns the union of the rows' custom metric units, sorted.
func extraUnits(rows ...Benchmark) []string {
	seen := make(map[string]bool)
	var out []string
	for _, b := range rows {
		for unit := range b.Extra {
			if !seen[unit] {
				seen[unit] = true
				out = append(out, unit)
			}
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("o", "", "output JSON path (default stdout)")
	comp := flag.Bool("compare", false, "compare two BENCH.json reports: baseline candidate")
	nsTol := flag.Float64("ns-tol", 2.0, "allowed fractional ns/op regression in compare mode")
	allocsTol := flag.Float64("allocs-tol", 0.15, "allowed fractional allocs/op regression in compare mode")
	flag.Parse()

	if *comp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchreport -compare baseline.json candidate.json")
			os.Exit(2)
		}
		base, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cand, err := load(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		failures := compare(base, cand, *nsTol, *allocsTol, os.Stdout)
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "\n%d benchmark regression(s):\n", len(failures))
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "  "+f)
			}
			os.Exit(1)
		}
		return
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
