package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cloudburst
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable1Metrics 	       1	 100248665 ns/op	35047600 B/op	   30215 allocs/op
BenchmarkSimEngine-8   	       3	    123456 ns/op
BenchmarkQRSMPredict   	 1000000	      1042 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	cloudburst	0.104s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	if rep.CPU == "" {
		t.Error("cpu line not captured")
	}
	// Sorted by name; GOMAXPROCS suffix stripped.
	names := []string{"BenchmarkQRSMPredict", "BenchmarkSimEngine", "BenchmarkTable1Metrics"}
	for i, want := range names {
		if rep.Benchmarks[i].Name != want {
			t.Errorf("benchmark[%d] = %q, want %q", i, rep.Benchmarks[i].Name, want)
		}
	}
	tm := rep.Benchmarks[2]
	if tm.NsPerOp != 100248665 || tm.BytesPerOp == nil || *tm.BytesPerOp != 35047600 ||
		tm.AllocsPerOp == nil || *tm.AllocsPerOp != 30215 {
		t.Errorf("Table1Metrics metrics = %+v", tm)
	}
	// SimEngine ran without -benchmem: absent, not zero.
	if rep.Benchmarks[1].AllocsPerOp != nil || rep.Benchmarks[1].BytesPerOp != nil {
		t.Errorf("SimEngine mem metrics = %+v, want absent", rep.Benchmarks[1])
	}
	// QRSMPredict measured a real zero: it must survive, distinct from absent.
	qp := rep.Benchmarks[0]
	if qp.AllocsPerOp == nil || *qp.AllocsPerOp != 0 || qp.BytesPerOp == nil || *qp.BytesPerOp != 0 {
		t.Errorf("QRSMPredict mem metrics = %+v, want measured zeros", qp)
	}
}

func TestMeasuredZeroRoundTrips(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i, b := range back.Benchmarks {
		orig := rep.Benchmarks[i]
		if (b.AllocsPerOp == nil) != (orig.AllocsPerOp == nil) {
			t.Errorf("%s: allocs presence lost in round trip", b.Name)
		}
	}
	if !strings.Contains(string(data), `"allocs_per_op":0`) {
		t.Errorf("measured zero allocs dropped from JSON: %s", data)
	}
}

func TestParseCustomMetric(t *testing.T) {
	// b.ReportMetric units land between ns/op and B/op in -bench output;
	// the parser must record them without losing the standard pairs.
	const line = `BenchmarkSweepCells-8   3   11415330 ns/op   3154 cells/sec   2972829 B/op   15573 allocs/op
`
	rep, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Benchmarks[0]
	if b.NsPerOp != 11415330 || b.AllocsPerOp == nil || *b.AllocsPerOp != 15573 {
		t.Errorf("standard metrics lost around custom unit: %+v", b)
	}
	if got := b.Extra["cells/sec"]; got != 3154 {
		t.Errorf("cells/sec = %v, want 3154", got)
	}
}

func TestParseFoldsRepeats(t *testing.T) {
	// go test -count 3 prints each benchmark three times; the report keeps
	// one row per benchmark with each metric's median. An even count takes
	// the mean of the middle two.
	const out = `BenchmarkA-2   1   300 ns/op   7 cells/sec   900 B/op   12 allocs/op
BenchmarkB-2   2   40 ns/op
BenchmarkA-2   1   100 ns/op   5 cells/sec   500 B/op   10 allocs/op
BenchmarkB-2   4   10 ns/op
BenchmarkA-2   3   200 ns/op   9 cells/sec   700 B/op   11 allocs/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("folded into %d rows, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	a, b := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Name != "BenchmarkA" || a.Samples != 3 || a.Iterations != 1 || a.NsPerOp != 200 ||
		*a.BytesPerOp != 700 || *a.AllocsPerOp != 11 || a.Extra["cells/sec"] != 7 {
		t.Errorf("BenchmarkA = %+v, want the medians of 3 rows", a)
	}
	if b.Name != "BenchmarkB" || b.Samples != 2 || b.Iterations != 3 || b.NsPerOp != 25 ||
		b.BytesPerOp != nil || b.AllocsPerOp != nil || b.Extra != nil {
		t.Errorf("BenchmarkB = %+v, want the middle means of 2 rows, memory unmeasured", b)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("expected error for output without benchmarks")
	}
}

func fp(v float64) *float64 { return &v }

func TestCompare(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(50)},
		{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: fp(10)},
	}}

	t.Run("within tolerance", func(t *testing.T) {
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 140, AllocsPerOp: fp(52)},
			{Name: "BenchmarkB", NsPerOp: 150, AllocsPerOp: fp(10)},
		}}
		var sb strings.Builder
		if f := compare(base, cand, 0.5, 0.1, &sb); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})

	t.Run("ns regression", func(t *testing.T) {
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 200, AllocsPerOp: fp(50)},
			{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: fp(10)},
		}}
		var sb strings.Builder
		f := compare(base, cand, 0.5, 0.1, &sb)
		if len(f) != 1 || !strings.Contains(f[0], "ns/op") {
			t.Fatalf("failures = %v, want one ns/op regression", f)
		}
	})

	t.Run("allocs regression", func(t *testing.T) {
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(50)},
			{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: fp(14)},
		}}
		var sb strings.Builder
		f := compare(base, cand, 0.5, 0.1, &sb)
		if len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
			t.Fatalf("failures = %v, want one allocs/op regression", f)
		}
	})

	t.Run("missing baseline fails", func(t *testing.T) {
		// A renamed benchmark would otherwise escape the gate: its new name
		// has no baseline row, so no tolerance applies to it.
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(50)},
			{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: fp(10)},
			{Name: "BenchmarkNew", NsPerOp: 1, AllocsPerOp: fp(1)},
		}}
		var sb strings.Builder
		f := compare(base, cand, 0.5, 0.1, &sb)
		if len(f) != 1 || !strings.Contains(f[0], "BenchmarkNew") || !strings.Contains(f[0], "no baseline") {
			t.Fatalf("failures = %v, want one missing-baseline failure for BenchmarkNew", f)
		}
		if !strings.Contains(sb.String(), "MISSING") {
			t.Errorf("missing baseline not reported:\n%s", sb.String())
		}
	})

	t.Run("unmeasured allocs skipped not zero", func(t *testing.T) {
		// Candidate ran without -benchmem: the gate must not treat the
		// absent metric as 0 (a "free" pass) nor as a regression.
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 100},
			{Name: "BenchmarkB", NsPerOp: 200},
		}}
		var sb strings.Builder
		if f := compare(base, cand, 0.5, 0.1, &sb); len(f) != 0 {
			t.Fatalf("unmeasured allocs must not gate: %v", f)
		}
		if !strings.Contains(sb.String(), "not measured in candidate") {
			t.Errorf("missing skip notice:\n%s", sb.String())
		}
	})

	t.Run("dropped benchmark fails", func(t *testing.T) {
		// A deleted or renamed benchmark would otherwise take its gate
		// with it: its baseline row has nothing to compare against.
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(50)},
		}}
		var sb strings.Builder
		f := compare(base, cand, 0.5, 0.1, &sb)
		if len(f) != 1 || !strings.Contains(f[0], "BenchmarkB") || !strings.Contains(f[0], "no candidate") {
			t.Fatalf("failures = %v, want one dropped-benchmark failure for BenchmarkB", f)
		}
		if !strings.Contains(sb.String(), "DROPPED") {
			t.Errorf("dropped benchmark not reported:\n%s", sb.String())
		}
	})

	t.Run("measured zero baseline is a promise", func(t *testing.T) {
		zbase := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: fp(0)},
		}}
		cand := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: fp(3)},
		}}
		var sb strings.Builder
		f := compare(zbase, cand, 0.5, 0.1, &sb)
		if len(f) != 1 || !strings.Contains(f[0], "allocation-free") {
			t.Fatalf("failures = %v, want allocation-free regression", f)
		}
	})
}
